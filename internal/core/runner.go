package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"clydesdale/internal/colstore"
	"clydesdale/internal/expr"
	"clydesdale/internal/mr"
	"clydesdale/internal/obs"
	"clydesdale/internal/plan"
	"clydesdale/internal/records"
)

// Clydesdale-specific counters.
const (
	CtrHashTablesBuilt = "CLYDESDALE_HASH_TABLES_BUILT"
	CtrHashBuildNanos  = "CLYDESDALE_HASH_BUILD_NANOS"
	CtrHashReuses      = "CLYDESDALE_HASH_TABLE_REUSES"
	CtrProbeRows       = "CLYDESDALE_PROBE_ROWS"
	CtrProbeEmits      = "CLYDESDALE_PROBE_EMITS"
	CtrProbeNanos      = "CLYDESDALE_PROBE_NANOS"
	CtrProbeThreads    = "CLYDESDALE_PROBE_THREADS"
	// CtrCodeSideTables counts code→offset side-table builds (one per
	// dimension table × fact FK dictionary); CtrCodeProbeRows counts probe
	// lookups answered by a side-table array read instead of a hash probe.
	CtrCodeSideTables = "CLYDESDALE_CODE_SIDE_TABLES"
	CtrCodeProbeRows  = "CLYDESDALE_CODE_PROBE_ROWS"
)

// starJoinRunner is Clydesdale's MTMapRunner (§5.1, Figure 5): it builds or
// reuses the node's dimension hash tables, unpacks its multi-split into one
// reader per thread, and runs the probe phase over all of them, sharing the
// single copy of the hash tables.
//
// One runner instance serves every task of the job (see Engine.runStar), so
// the table group below is the per-job, per-node build cache — the Go
// equivalent of the paper's JVM statics, minus the race two concurrent
// tasks on one node would have hitting a load-then-store cache.
type starJoinRunner struct {
	eng        *Engine
	sh         *plan.Shape
	factSchema *records.Schema // the projected fact schema the reader yields
	groupSrcs  []groupSrc
	gschema    *records.Schema
	tables     nodeTableGroup
}

// groupSrc locates one group-by column inside a dimension's aux values.
type groupSrc struct{ dim, aux int }

func newStarJoinRunner(eng *Engine, sh *plan.Shape, factSchema *records.Schema) (*starJoinRunner, error) {
	srcs := make([]groupSrc, len(sh.GroupBy))
	for gi, gcol := range sh.GroupBy {
		found := false
		for di := range sh.Joins {
			for ai, aux := range sh.Joins[di].Aux {
				if aux == gcol {
					srcs[gi] = groupSrc{dim: di, aux: ai}
					found = true
				}
			}
		}
		if !found {
			return nil, fmt.Errorf("core: group column %s not covered by dimension aux columns", gcol)
		}
	}
	return &starJoinRunner{
		eng:        eng,
		sh:         sh,
		factSchema: factSchema,
		groupSrcs:  srcs,
		gschema:    sh.GroupSchema(),
	}, nil
}

// nodeTableGroup deduplicates hash-table builds across the concurrently
// running tasks of one job: per node, the first caller builds and every
// other caller blocks until that build finishes, then shares the result.
// Without this, two tasks launched together on one node both miss the
// cache, build duplicate tables, and double-reserve node memory.
type nodeTableGroup struct {
	mu    sync.Mutex
	calls map[string]*tableCall
}

type tableCall struct {
	done chan struct{}
	hts  []*DimHashTable
	err  error
}

// do returns the node's tables, invoking build exactly once per node even
// under concurrent callers; reused reports whether this caller shared a
// winner's tables. A failed build is not cached — the next task retries it.
func (g *nodeTableGroup) do(node string, build func() ([]*DimHashTable, error)) (hts []*DimHashTable, reused bool, err error) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = make(map[string]*tableCall)
	}
	if c, ok := g.calls[node]; ok {
		g.mu.Unlock()
		<-c.done
		return c.hts, c.err == nil, c.err
	}
	c := &tableCall{done: make(chan struct{})}
	g.calls[node] = c
	g.mu.Unlock()

	c.hts, c.err = build()
	if c.err != nil {
		g.mu.Lock()
		delete(g.calls, node)
		g.mu.Unlock()
	}
	close(c.done)
	return c.hts, false, c.err
}

// TableProvider supplies ready-to-probe dimension hash tables, decoupling
// table lifetime from job lifetime: a serving layer implements it to keep
// tables resident across queries. The provider owns the node memory
// reservation and the build instrumentation (counters, hash-build spans)
// for every table it hands out; release unpins the table and must be called
// exactly once when the task stops probing it.
type TableProvider interface {
	AcquireDimTable(ctx *mr.TaskContext, dimDir string, edge *plan.JoinEdge) (ht *DimHashTable, release func(), err error)
}

// hashTables returns the node's hash tables, building them on first use,
// plus a release the caller runs when probing ends. With a TableProvider
// configured the tables come from (and are accounted by) the provider;
// otherwise, with multi-threading enabled the tables are shared per node
// across consecutive and concurrent tasks of the job, and with it disabled
// each task builds privately, reproducing the Figure 9 ablation. In the
// provider-less paths the caller's task reserves the resident size (the
// release is then a no-op: the reservation falls with the task).
func (r *starJoinRunner) hashTables(ctx *mr.TaskContext) ([]*DimHashTable, func(), error) {
	noop := func() {}
	if p := r.eng.opts.Tables; p != nil {
		hts := make([]*DimHashTable, len(r.sh.Joins))
		releases := make([]func(), 0, len(r.sh.Joins))
		releaseAll := func() {
			for _, rel := range releases {
				rel()
			}
		}
		for i := range r.sh.Joins {
			edge := &r.sh.Joins[i]
			dir, err := r.eng.cat.DimDir(edge.Table)
			if err != nil {
				releaseAll()
				return nil, nil, err
			}
			ht, rel, err := p.AcquireDimTable(ctx, dir, edge)
			if err != nil {
				releaseAll()
				return nil, nil, err
			}
			hts[i] = ht
			releases = append(releases, rel)
		}
		return hts, releaseAll, nil
	}
	if !r.eng.feats.MultiThreaded {
		hts, err := r.buildHashTables(ctx)
		if err != nil {
			return nil, nil, err
		}
		return hts, noop, r.reserve(ctx, hts)
	}
	hts, reused, err := r.tables.do(ctx.Node().ID(), func() ([]*DimHashTable, error) {
		return r.buildHashTables(ctx)
	})
	if err != nil {
		return nil, nil, err
	}
	if reused {
		ctx.Counters.Add(CtrHashReuses, 1)
	}
	return hts, noop, r.reserve(ctx, hts)
}

func (r *starJoinRunner) buildHashTables(ctx *mr.TaskContext) ([]*DimHashTable, error) {
	start := time.Now()
	hts := make([]*DimHashTable, len(r.sh.Joins))
	for i := range r.sh.Joins {
		edge := &r.sh.Joins[i]
		dir, err := r.eng.cat.DimDir(edge.Table)
		if err != nil {
			return nil, err
		}
		h, err := BuildDimHashTable(ctx.FS, ctx.Node(), dir, edge)
		if err != nil {
			return nil, err
		}
		hts[i] = h
		ctx.Counters.Add(CtrHashTablesBuilt, 1)
	}
	ctx.Counters.Add(CtrHashBuildNanos, time.Since(start).Nanoseconds())
	ctx.Span(obs.PhaseHashBuild, start, "tables", fmt.Sprint(len(hts)))
	return hts, nil
}

func (r *starJoinRunner) reserve(ctx *mr.TaskContext, hts []*DimHashTable) error {
	var total int64
	for _, h := range hts {
		total += h.MemBytes
	}
	return ctx.ReserveMemory(total)
}

// probeScratch is one probe thread's reusable state: the per-row join
// buffers, the boxed key/value records the legacy emit path hands to the
// collector (safe to reuse — the map collector serializes immediately and
// retains nothing), and the in-mapper aggregator when combining is on.
type probeScratch struct {
	auxRow  [][]records.Value
	fkCols  [][]int64
	fkCodes [][]uint32 // per dim: the FK column's dictionary codes, when carried
	fkSide  [][]int32  // per dim: code→arena-offset side table, nil → hash probe
	keyVals []records.Value
	keyRec  records.Record // wraps keyVals
	valVals []records.Value
	valRec  records.Record // wraps valVals
	keyBuf  []byte
	agg     *groupAgg
}

func (r *starJoinRunner) newScratch() *probeScratch {
	sc := &probeScratch{
		auxRow:  make([][]records.Value, len(r.sh.Joins)),
		fkCols:  make([][]int64, len(r.sh.Joins)),
		fkCodes: make([][]uint32, len(r.sh.Joins)),
		fkSide:  make([][]int32, len(r.sh.Joins)),
		keyVals: make([]records.Value, len(r.groupSrcs)),
		valVals: make([]records.Value, 1),
	}
	sc.keyRec = records.Make(r.gschema, sc.keyVals...)
	sc.valRec = records.Make(aggValueSchema, sc.valVals...)
	if r.eng.feats.InMapperCombining {
		sc.agg = newGroupAgg()
	}
	return sc
}

// groupAgg is a per-thread in-mapper combiner for the algebraic sum
// aggregate (legal precisely because partial sums merge associatively —
// the job's combiner and reducer still run over the flushed partials).
// Groups are keyed by encoded group-key bytes; SSB group-by cardinality is
// tiny, so the map stays small while absorbing one update per joined row.
type groupAgg struct {
	idx  map[string]int
	keys [][]byte
	sums []float64
}

func newGroupAgg() *groupAgg { return &groupAgg{idx: make(map[string]int)} }

// add folds one measure into the group for key (borrowed bytes; copied only
// on first sight of the group).
func (a *groupAgg) add(key []byte, measure float64) {
	if i, ok := a.idx[string(key)]; ok { // no-alloc lookup
		a.sums[i] += measure
		return
	}
	kb := append([]byte(nil), key...)
	a.idx[string(kb)] = len(a.sums)
	a.keys = append(a.keys, kb)
	a.sums = append(a.sums, measure)
}

// flush emits one (group, partial sum) record pair per accumulated group,
// in first-seen order.
func (a *groupAgg) flush(gschema *records.Schema, out mr.Collector) error {
	for i, kb := range a.keys {
		key, _, err := records.DecodeRecord(kb, gschema)
		if err != nil {
			return fmt.Errorf("core: decoding aggregated group key: %w", err)
		}
		if err := out.Collect(key, records.Make(aggValueSchema, records.Float(a.sums[i]))); err != nil {
			return err
		}
	}
	return nil
}

// Run implements mr.MapRunner.
func (r *starJoinRunner) Run(ctx *mr.TaskContext, reader mr.RecordReader, out mr.Collector) error {
	hts, release, err := r.hashTables(ctx)
	if err != nil {
		return err
	}
	defer release()

	readers := []mr.RecordReader{reader}
	if multi, ok := reader.(mr.MultiReader); ok && r.eng.feats.MultiThreaded {
		rs, err := multi.Readers()
		if err != nil {
			return err
		}
		readers = rs
	}

	// §5.2 requirement (3): the scheduler tells the task how many slots it
	// may occupy; cap the thread count accordingly and let threads pull
	// readers from a queue (a pack may hold more splits than slots).
	threads := int(ctx.Conf.GetInt(mr.ConfMapThreads, 1))
	if threads < 1 {
		threads = 1
	}
	if threads > len(readers) {
		threads = len(readers)
	}
	ctx.Counters.Add(CtrProbeThreads, int64(threads))

	order := probeOrder(hts, r.eng.opts.ProbeMostSelectiveFirst)

	probeStart := time.Now()
	queue := make(chan mr.RecordReader, len(readers))
	for _, rd := range readers {
		queue <- rd
	}
	close(queue)
	var wg sync.WaitGroup
	errs := make([]error, threads)
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sc := r.newScratch()
			for rd := range queue {
				if err := r.probe(ctx, rd, hts, order, sc, out); err != nil {
					errs[i] = err
					return
				}
			}
			if sc.agg != nil {
				// In-mapper combining: the boxed records exist only now,
				// one pair per group instead of one per joined row.
				errs[i] = sc.agg.flush(r.gschema, out)
			}
		}(i)
	}
	wg.Wait()
	ctx.Counters.Add(CtrProbeNanos, time.Since(probeStart).Nanoseconds())
	ctx.Span(obs.PhaseProbe, probeStart, "threads", fmt.Sprint(threads))
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// probe drains one reader, choosing the block-iteration path when enabled
// and available (§5.3).
func (r *starJoinRunner) probe(ctx *mr.TaskContext, rd mr.RecordReader, hts []*DimHashTable, order []int, sc *probeScratch, out mr.Collector) error {
	if br, ok := rd.(colstore.BlockReader); ok && r.eng.feats.BlockIteration {
		return r.probeBlocks(ctx, br, hts, order, sc, out)
	}
	return r.probeRows(ctx, rd, hts, order, sc, out)
}

// probeOrder returns the dimension visit order for the early-out probe:
// query order by default, ascending hash-table size when the engine is
// configured to put the most selective dimension first.
func probeOrder(hts []*DimHashTable, selectiveFirst bool) []int {
	order := make([]int, len(hts))
	for i := range order {
		order[i] = i
	}
	if selectiveFirst {
		sort.SliceStable(order, func(a, b int) bool {
			return hts[order[a]].Len() < hts[order[b]].Len()
		})
	}
	return order
}

// probeBlocks is the B-CIF path: one reader call per block, tight loops
// over typed column vectors, no per-row boxing before the join filter.
func (r *starJoinRunner) probeBlocks(ctx *mr.TaskContext, br colstore.BlockReader, hts []*DimHashTable, order []int, sc *probeScratch, out mr.Collector) error {
	var pred expr.BlockPred
	var agg expr.BlockNum
	var fkIdx []int
	compiled := false
	auxRow := sc.auxRow
	var rows, emits, codeProbes int64

	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		blk, ok, err := br.NextBlock()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if !compiled {
			schema := blk.Schema()
			if r.sh.FactPred != nil {
				p, err := expr.CompileBlockPred(r.sh.FactPred, schema)
				if err != nil {
					return err
				}
				pred = p
			}
			a, err := expr.CompileBlockNum(r.sh.Agg, schema)
			if err != nil {
				return err
			}
			agg = a
			fkIdx = make([]int, len(r.sh.Joins))
			for i, d := range r.sh.Joins {
				ix := schema.Index(d.FK)
				if ix < 0 {
					return fmt.Errorf("core: fact reader schema %v lacks FK %s", schema, d.FK)
				}
				fkIdx[i] = ix
			}
			compiled = true
		}
		fkCols, fkCodes, fkSide := sc.fkCols, sc.fkCodes, sc.fkSide
		for i, ix := range fkIdx {
			cv := blk.Col(ix)
			fkCols[i] = cv.Ints
			fkSide[i] = nil
			// Dictionary-probe side table: when the reader carried the FK
			// column's codes out of the scan, translate its dictionary to
			// arena offsets once and probe by array index below.
			if !r.eng.opts.NoCodeSpacePreds && cv.Dict != nil && len(cv.Codes) == len(cv.Ints) {
				if side, built := hts[i].CodeSideTable(cv.Dict); side != nil {
					fkSide[i] = side
					fkCodes[i] = cv.Codes
					if built {
						ctx.Counters.Add(CtrCodeSideTables, 1)
					}
				}
			}
		}
		n := blk.Len()
		rows += int64(n)
	rowLoop:
		for i := 0; i < n; i++ {
			if pred != nil && !pred(blk, i) {
				continue
			}
			// Early-out probe (§4.2): stop at the first dimension miss.
			for _, d := range order {
				if side := fkSide[d]; side != nil {
					codeProbes++ // misses are side-table answers too
					off := side[fkCodes[d][i]]
					if off < 0 {
						continue rowLoop
					}
					auxRow[d] = hts[d].AuxAt(off)
					continue
				}
				aux, ok := hts[d].Probe(fkCols[d][i])
				if !ok {
					continue rowLoop
				}
				auxRow[d] = aux
			}
			if err := r.emit(sc, out, agg(blk, i)); err != nil {
				return err
			}
			emits++
		}
	}
	ctx.Counters.Add(CtrProbeRows, rows)
	ctx.Counters.Add(CtrProbeEmits, emits)
	ctx.Counters.Add(CtrCodeProbeRows, codeProbes)
	return nil
}

// probeRows is the row-at-a-time CIF path: one reader call and one boxed
// record per row.
func (r *starJoinRunner) probeRows(ctx *mr.TaskContext, rd mr.RecordReader, hts []*DimHashTable, order []int, sc *probeScratch, out mr.Collector) error {
	var pred expr.RowPred
	var agg expr.RowNum
	var fkIdx []int
	compiled := false
	auxRow := sc.auxRow
	var rows, emits int64

rowLoop:
	for {
		if rows%1024 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		_, rec, ok, err := rd.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if !compiled {
			schema := rec.Schema()
			if r.sh.FactPred != nil {
				p, err := expr.CompilePred(r.sh.FactPred, schema)
				if err != nil {
					return err
				}
				pred = p
			}
			a, err := expr.CompileNum(r.sh.Agg, schema)
			if err != nil {
				return err
			}
			agg = a
			fkIdx = make([]int, len(r.sh.Joins))
			for i, d := range r.sh.Joins {
				ix := schema.Index(d.FK)
				if ix < 0 {
					return fmt.Errorf("core: fact reader schema %v lacks FK %s", schema, d.FK)
				}
				fkIdx[i] = ix
			}
			compiled = true
		}
		rows++
		if pred != nil && !pred(rec) {
			continue
		}
		for _, d := range order {
			aux, ok := hts[d].Probe(rec.At(fkIdx[d]).Int64())
			if !ok {
				continue rowLoop
			}
			auxRow[d] = aux
		}
		if err := r.emit(sc, out, agg(rec)); err != nil {
			return err
		}
		emits++
	}
	ctx.Counters.Add(CtrProbeRows, rows)
	ctx.Counters.Add(CtrProbeEmits, emits)
	return nil
}

// emit gathers the group key from the joined aux values and either folds
// the measure into the thread's aggregator (in-mapper combining) or
// collects a (key, measure) pair through the reusable scratch records —
// both paths allocation-free per row.
func (r *starJoinRunner) emit(sc *probeScratch, out mr.Collector, measure float64) error {
	for gi, src := range r.groupSrcs {
		sc.keyVals[gi] = sc.auxRow[src.dim][src.aux]
	}
	if sc.agg != nil {
		sc.keyBuf = records.AppendRecord(sc.keyBuf[:0], sc.keyRec)
		sc.agg.add(sc.keyBuf, measure)
		return nil
	}
	sc.valVals[0] = records.Float(measure)
	return out.Collect(sc.keyRec, sc.valRec)
}

// aggValueSchema is the map-output value: one partial aggregate.
var aggValueSchema = records.NewSchema(records.F("agg", records.KindFloat64))

// sumReducer sums partial aggregates per group; it serves as both the
// combiner and the reducer (Figure 4).
type sumReducer struct{ mr.BaseReducer }

// Reduce implements mr.Reducer.
func (sumReducer) Reduce(key records.Record, values mr.Values, out mr.Collector) error {
	var sum float64
	for v, ok := values.Next(); ok; v, ok = values.Next() {
		sum += v.At(0).Float64()
	}
	return out.Collect(key, records.Make(aggValueSchema, records.Float(sum)))
}
