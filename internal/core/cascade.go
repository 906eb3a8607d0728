package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"clydesdale/internal/colstore"
	"clydesdale/internal/expr"
	"clydesdale/internal/mr"
	"clydesdale/internal/obs"
	"clydesdale/internal/plan"
	"clydesdale/internal/records"
	"clydesdale/internal/results"
)

// Cascading map-side joins (after arXiv 1206.6293): a snowflake plan runs
// as a chain of map-only jobs with no reduce phase between joins. Pass 1
// is a Clydesdale star pass over the depth-1 dimensions whose output is
// written hash-partitioned on the first snowflake join key (the
// co-partitioned output contract, mr.BucketOf). Each subsequent pass
// schedules one map task per bucket; the task loads only the matching
// bucket of a driver-bucketed side table, probes it, and emits its output
// bucketed on the next join key — so every join after the first is
// map-side and shuffle-free.

// Cascade executor counters.
const (
	CtrCascadePasses    = "CLYDESDALE_CASCADE_PASSES"
	CtrCascadeSideLoads = "CLYDESDALE_CASCADE_SIDE_LOADS"
	CtrCascadeSideNanos = "CLYDESDALE_CASCADE_SIDE_LOAD_NANOS"
	CtrCascadeSideRows  = "CLYDESDALE_CASCADE_SIDE_ROWS"
)

var cascadeSeq atomic.Int64

// runCascade executes a KindCascade physical plan.
func (e *Engine) runCascade(ctx context.Context, p *plan.Physical) (*results.ResultSet, *Report, error) {
	start := time.Now()
	sh := p.Shape
	head := 0
	for head < len(p.Steps) && p.Steps[head].Depth == 1 {
		head++
	}
	if head == 0 || head == len(p.Steps) {
		return nil, nil, fmt.Errorf("core: cascade plan for %s needs depth-1 and deeper steps", sh.Name)
	}
	buckets := p.Buckets
	if buckets < 1 {
		buckets = 1
	}

	// The depth-1 head edges drive the star machinery: dimension cache
	// dissemination, FK prune hints, and the star pass's hash tables.
	edges := make([]plan.JoinEdge, len(p.Steps))
	for i := range edges {
		edges[i] = p.Steps[i].JoinEdge
	}
	headEdges := edges[:head]
	dims, err := e.dimView(edges)
	if err != nil {
		return nil, nil, err
	}
	cacheDone := e.phaseSpan(ctx, obs.PhaseDimCache)
	if err := dims.cacheOnNodes(e.mr.FS(), headEdges); err != nil {
		cacheDone()
		return nil, nil, err
	}
	cacheDone()

	tmp := fmt.Sprintf("/tmp/clydesdale/%s-cascade-%d", sh.Name, cascadeSeq.Add(1))
	defer e.mr.FS().DeletePrefix(tmp)

	agg := mr.NewCounters()
	report := &Report{Query: sh.Name, Cascade: true}

	// Pass 1: one map-only star pass over the depth-1 dimensions, output
	// bucketed on the first deep join key.
	curDir := tmp + "/pass-1"
	curSchema := p.Steps[head-1].Out
	res, err := e.runCascadeStarPass(ctx, p, dims, headEdges, curDir, curSchema, buckets)
	if err != nil {
		return nil, nil, fmt.Errorf("core: %s cascade star pass: %w", sh.Name, err)
	}
	agg.Merge(res.Counters)
	report.CascadePasses++

	// Deep passes: one map-only job per snowflake edge, probe stream
	// co-partitioned with a driver-bucketed side table.
	for i := head; i < len(p.Steps); i++ {
		st := &p.Steps[i]
		sideDir := fmt.Sprintf("%s/side-%s", tmp, st.Table)
		sideSchema, err := e.writeCascadeSideTable(ctx, dims[st.Table], st, sideDir, buckets)
		if err != nil {
			return nil, nil, fmt.Errorf("core: %s cascade side table %s: %w", sh.Name, st.Table, err)
		}
		outDir := fmt.Sprintf("%s/pass-%d", tmp, i-head+2)
		var output mr.OutputFormat
		if i+1 < len(p.Steps) {
			output = &colstore.BucketRowOutput{Dir: outDir, Schema: st.Out, KeyCol: p.Steps[i+1].FK, Buckets: buckets}
		} else {
			output = &colstore.RowOutput{Dir: outDir, Schema: st.Out}
		}
		res, err := e.runCascadeJoinPass(ctx, sh.Name, st, curDir, curSchema, sideDir, sideSchema, output)
		if err != nil {
			return nil, nil, fmt.Errorf("core: %s cascade pass %d (%s): %w", sh.Name, i-head+2, st.Table, err)
		}
		agg.Merge(res.Counters)
		report.CascadePasses++
		curDir, curSchema = outDir, st.Out
	}

	rs, res, err := e.runAggJob(ctx, "clydesdale-cascade-agg-"+sh.Name, sh, curDir, curSchema)
	if err != nil {
		return nil, nil, fmt.Errorf("core: %s cascade aggregation: %w", sh.Name, err)
	}
	agg.Merge(res.Counters)
	agg.Add(CtrCascadePasses, int64(report.CascadePasses))

	sortStart := time.Now()
	if err := sortResult(rs, sh); err != nil {
		return nil, nil, err
	}
	report.SortTime = time.Since(sortStart)
	report.Total = time.Since(start)
	report.Job = &mr.JobResult{JobID: "cascade", Counters: agg, Duration: report.Total}
	report.fillScanStats(agg)
	return rs, report, nil
}

// runCascadeStarPass joins the fact scan with every depth-1 dimension in
// one map-only job (per-node shared hash tables, early-out probes) and
// writes the output bucketed on the first deep join key.
func (e *Engine) runCascadeStarPass(ctx context.Context, p *plan.Physical, dims dimView, headEdges []plan.JoinEdge, outDir string, outSchema *records.Schema, buckets int) (*mr.JobResult, error) {
	sh := p.Shape
	inSchema := p.Steps[0].In
	readCols := inSchema.Names()
	if !e.feats.ColumnarStorage {
		readCols = e.cat.FactSchema.Names()
		s, err := e.cat.FactSchema.Project(readCols...)
		if err != nil {
			return nil, err
		}
		inSchema = s
	}
	var hints []expr.Pred
	if !e.opts.NoScanPruning {
		hints = dims.fkPruneHints(headEdges)
	}
	// The cascade reads the fact table in its star pass only; deeper passes
	// consume bucketed intermediates. Pin the partition list for this pass.
	snap, err := e.snaps.Acquire(e.cat.FactDir)
	if err != nil {
		return nil, err
	}
	defer snap.Release()
	input := &colstore.CIFInput{
		Dir: e.cat.FactDir, Columns: readCols, Schema: e.cat.FactSchema, BlockRows: e.opts.BlockRows,
		Snapshot: snap.Parts,
		Pred:     sh.FactPred, PrunePreds: hints, EagerColumns: factFKs(headEdges),
		DisablePruning: e.opts.NoScanPruning, DisableLateMat: true,
	}

	var factPred expr.RowPred
	if sh.FactPred != nil {
		fp, err := expr.CompilePred(sh.FactPred, inSchema)
		if err != nil {
			return nil, err
		}
		factPred = fp
	}
	dimDirs := make([]string, len(headEdges))
	fkIdx := make([]int, len(headEdges))
	for i := range headEdges {
		edge := &headEdges[i]
		dir, err := e.cat.DimDir(edge.Table)
		if err != nil {
			return nil, err
		}
		dimDirs[i] = dir
		fkIdx[i] = inSchema.Index(edge.FK)
		if fkIdx[i] < 0 {
			return nil, fmt.Errorf("core: cascade fact read lacks FK %s", edge.FK)
		}
	}
	srcs, err := outputSources(outSchema, inSchema, headEdges)
	if err != nil {
		return nil, err
	}

	eng := e
	group := &nodeTableGroup{}
	cfg := e.mr.Cluster().Config()
	conf := mr.NewJobConf()
	if e.feats.MultiThreaded {
		conf.SetInt(mr.ConfTaskMemory, cfg.MemoryPerNode)
		conf.SetBool(mr.ConfJVMReuse, true)
		conf.SetInt(mr.ConfMultiSplitPack, int64(e.opts.MultiSplitPack))
		conf.SetInt(mr.ConfMapThreads, int64(cfg.MapSlots))
	}
	job := &mr.Job{
		Name:  "clydesdale-cascade-" + sh.Name + "-star",
		Conf:  conf,
		Input: input,
		Output: &colstore.BucketRowOutput{
			Dir: outDir, Schema: outSchema, KeyCol: p.Steps[len(headEdges)].FK, Buckets: buckets,
		},
		NewMapper: func() mr.Mapper {
			return &cascadeStarMapper{
				eng: eng, edges: headEdges, dimDirs: dimDirs, group: group,
				factPred: factPred, fkIdx: fkIdx, srcs: srcs, outSchema: outSchema,
			}
		},
		NumReduceTasks: 0,
	}
	return e.mr.Submit(ctx, job)
}

// outputSource locates one output column: a carried probe-stream column or
// a dimension aux column.
type outputSource struct {
	factIdx int // >= 0: index in the probe stream's schema
	dim     int // else: edges[dim].Aux[aux]
	aux     int
}

// outputSources maps every field of out onto the probe stream or a
// dimension's aux payload.
func outputSources(out, in *records.Schema, edges []plan.JoinEdge) ([]outputSource, error) {
	srcs := make([]outputSource, out.Len())
	for i := 0; i < out.Len(); i++ {
		name := out.Field(i).Name
		if j := in.Index(name); j >= 0 {
			srcs[i] = outputSource{factIdx: j, dim: -1}
			continue
		}
		found := false
		for d := range edges {
			for a, auxCol := range edges[d].Aux {
				if auxCol == name {
					srcs[i] = outputSource{factIdx: -1, dim: d, aux: a}
					found = true
					break
				}
			}
			if found {
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("core: cascade output column %s has no source", name)
		}
	}
	return srcs, nil
}

// cascadeStarMapper probes every depth-1 dimension's per-node shared hash
// table with early-out, like the single-pass star join, but assembles a
// carried row instead of aggregating.
type cascadeStarMapper struct {
	eng       *Engine
	edges     []plan.JoinEdge
	dimDirs   []string
	group     *nodeTableGroup
	factPred  expr.RowPred
	fkIdx     []int
	srcs      []outputSource
	outSchema *records.Schema

	hts []*DimHashTable
	aux [][]records.Value
}

// Setup implements mr.Mapper: build or fetch the node's shared tables for
// all depth-1 dimensions.
func (m *cascadeStarMapper) Setup(ctx *mr.TaskContext) error {
	build := func() ([]*DimHashTable, error) {
		start := time.Now()
		hts := make([]*DimHashTable, len(m.edges))
		for i := range m.edges {
			h, err := BuildDimHashTable(ctx.FS, ctx.Node(), m.dimDirs[i], &m.edges[i])
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
	var err error
	if !m.eng.feats.MultiThreaded {
		m.hts, err = build()
	} else {
		var reused bool
		m.hts, reused, err = m.group.do(ctx.Node().ID(), build)
		if err == nil && reused {
			ctx.Counters.Add(CtrHashReuses, 1)
		}
	}
	if err != nil {
		return err
	}
	var mem int64
	for _, h := range m.hts {
		mem += h.MemBytes
	}
	m.aux = make([][]records.Value, len(m.hts))
	return ctx.ReserveMemory(mem)
}

// Map implements mr.Mapper: early-out probe of every dimension, then emit
// the carried row.
func (m *cascadeStarMapper) Map(_, v records.Record, out mr.Collector) error {
	if m.factPred != nil && !m.factPred(v) {
		return nil
	}
	for i, h := range m.hts {
		aux, ok := h.Probe(v.At(m.fkIdx[i]).Int64())
		if !ok {
			return nil
		}
		m.aux[i] = aux
	}
	row := make([]records.Value, len(m.srcs))
	for i, s := range m.srcs {
		if s.factIdx >= 0 {
			row[i] = v.At(s.factIdx)
		} else {
			row[i] = m.aux[s.dim][s.aux]
		}
	}
	return out.Collect(records.Record{}, records.Make(m.outSchema, row...))
}

// Cleanup implements mr.Mapper.
func (m *cascadeStarMapper) Cleanup(mr.Collector) error { return nil }

// writeCascadeSideTable selects a snowflake dimension's qualifying rows
// from the driver's memoized copy and writes one blob per bucket (PK + aux
// columns, bucketed by mr.BucketOf on the PK — the same function that
// bucketed the probe stream). Returns the side blob's record schema.
func (e *Engine) writeCascadeSideTable(ctx context.Context, d *driverDim, st *plan.Step, sideDir string, buckets int) (*records.Schema, error) {
	done := e.phaseSpan(ctx, obs.PhaseHashBuild)
	defer done()
	c, err := d.open()
	if err != nil {
		return nil, err
	}
	rows, err := c.Select(st.PK, st.Pred, st.Aux)
	if err != nil {
		return nil, err
	}
	fields := []records.Field{st.Schema.Field(st.Schema.MustIndex(st.PK))}
	fields = append(fields, st.AuxSchema().Fields()...)
	sideSchema := records.NewSchema(fields...)
	blobs := make([][]byte, buckets)
	vals := make([]records.Value, 1+rows.Width)
	for i, k := range rows.Keys {
		vals[0] = records.Int(k)
		copy(vals[1:], rows.AuxAt(i))
		b := mr.BucketOf(vals[0], buckets)
		blobs[b] = records.AppendRecord(blobs[b], records.Make(sideSchema, vals...))
	}
	fs := e.mr.FS()
	for b, blob := range blobs {
		if len(blob) == 0 {
			continue
		}
		path := fmt.Sprintf("%s/bucket-%05d", sideDir, b)
		if err := fs.WriteFile(path, "", blob); err != nil {
			return nil, err
		}
	}
	return sideSchema, nil
}

// runCascadeJoinPass joins a bucketed intermediate with a bucketed side
// table as a map-only job: one map task per probe bucket, each loading
// only the matching side bucket.
func (e *Engine) runCascadeJoinPass(ctx context.Context, name string, st *plan.Step, inDir string, inSchema *records.Schema, sideDir string, sideSchema *records.Schema, output mr.OutputFormat) (*mr.JobResult, error) {
	fkIdx := inSchema.Index(st.FK)
	if fkIdx < 0 {
		return nil, fmt.Errorf("core: cascade input lacks FK %s", st.FK)
	}
	var carryIdx []int
	var auxIdx []int
	for i := 0; i < st.Out.Len(); i++ {
		nameI := st.Out.Field(i).Name
		if j := inSchema.Index(nameI); j >= 0 {
			carryIdx = append(carryIdx, j)
			continue
		}
		j := sideSchema.Index(nameI)
		if j < 0 {
			return nil, fmt.Errorf("core: cascade output column %s has no source", nameI)
		}
		auxIdx = append(auxIdx, j)
	}
	outSchema := st.Out
	job := &mr.Job{
		Name:   "clydesdale-cascade-" + name + "-" + st.Table,
		Conf:   mr.NewJobConf(),
		Input:  &colstore.BucketRowInput{Dir: inDir, Schema: inSchema},
		Output: output,
		NewMapper: func() mr.Mapper {
			return &cascadeJoinMapper{
				sideDir: sideDir, sideSchema: sideSchema,
				fkIdx: fkIdx, carryIdx: carryIdx, auxIdx: auxIdx, outSchema: outSchema,
			}
		},
		NumReduceTasks: 0,
	}
	return e.mr.Submit(ctx, job)
}

// cascadeJoinMapper probes one bucket of a driver-bucketed side table.
// The bucket arrives as the record key (BucketRowInput), so the side blob
// loads lazily on the first record and only that bucket's entries are
// ever resident — the co-partitioning payoff.
type cascadeJoinMapper struct {
	sideDir    string
	sideSchema *records.Schema
	fkIdx      int
	carryIdx   []int
	auxIdx     []int
	outSchema  *records.Schema

	ctx    *mr.TaskContext
	loaded map[int64]bool
	table  map[int64][]records.Value
}

// Setup implements mr.Mapper.
func (m *cascadeJoinMapper) Setup(ctx *mr.TaskContext) error {
	m.ctx = ctx
	m.loaded = map[int64]bool{}
	m.table = map[int64][]records.Value{}
	return nil
}

// loadBucket reads one side bucket's blob from HDFS into the probe table.
func (m *cascadeJoinMapper) loadBucket(bucket int64) error {
	if m.loaded[bucket] {
		return nil
	}
	m.loaded[bucket] = true
	start := time.Now()
	path := fmt.Sprintf("%s/bucket-%05d", m.sideDir, bucket)
	if !m.ctx.FS.Exists(path) {
		// No build rows hashed here: every probe in this bucket misses.
		return nil
	}
	data, err := m.ctx.FS.ReadAll(path, m.ctx.Node().ID())
	if err != nil {
		return err
	}
	var mem int64
	for pos := 0; pos < len(data); {
		rec, n, err := records.DecodeRecord(data[pos:], m.sideSchema)
		if err != nil {
			return err
		}
		pos += n
		vals := rec.Values()
		aux := append([]records.Value(nil), vals[1:]...)
		m.table[vals[0].Int64()] = aux
		mem += plan.MapJoinEntryBytes(aux)
		m.ctx.Counters.Add(CtrCascadeSideRows, 1)
	}
	m.ctx.Counters.Add(CtrCascadeSideLoads, 1)
	m.ctx.Counters.Add(CtrCascadeSideNanos, time.Since(start).Nanoseconds())
	m.ctx.Span(obs.PhaseHashBuild, start, "side-bucket", fmt.Sprint(bucket))
	return m.ctx.ReserveMemory(mem)
}

// Map implements mr.Mapper.
func (m *cascadeJoinMapper) Map(k, v records.Record, out mr.Collector) error {
	if err := m.loadBucket(k.At(0).Int64()); err != nil {
		return err
	}
	aux, ok := m.table[v.At(m.fkIdx).Int64()]
	if !ok {
		return nil
	}
	row := make([]records.Value, 0, len(m.carryIdx)+len(m.auxIdx))
	for _, ix := range m.carryIdx {
		row = append(row, v.At(ix))
	}
	for _, ix := range m.auxIdx {
		row = append(row, aux[ix-1])
	}
	return out.Collect(records.Record{}, records.Make(m.outSchema, row...))
}

// Cleanup implements mr.Mapper.
func (m *cascadeJoinMapper) Cleanup(mr.Collector) error { return nil }
