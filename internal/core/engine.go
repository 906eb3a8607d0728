package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"clydesdale/internal/cluster"

	"clydesdale/internal/colstore"
	"clydesdale/internal/expr"
	"clydesdale/internal/mr"
	"clydesdale/internal/obs"
	"clydesdale/internal/plan"
	"clydesdale/internal/records"
	"clydesdale/internal/results"
)

// ErrOOM marks a query that failed because dimension hash tables (or task
// state) exceeded the node memory budget; check with errors.Is. It aliases
// cluster.ErrOutOfMemory, so errors surfaced straight from the cluster
// match too.
var ErrOOM = cluster.ErrOutOfMemory

// Features toggles the techniques §6.5 ablates. All on is Clydesdale
// proper.
type Features struct {
	// ColumnarStorage prunes the fact scan to the query's columns; off
	// reads every CIF column.
	ColumnarStorage bool
	// BlockIteration reads the fact table a block of rows at a time; off
	// boxes one record per row (Volcano-style).
	BlockIteration bool
	// MultiThreaded runs one multi-threaded map task per node with shared
	// hash tables (MTMapRunner + JVM reuse + capacity scheduling + MultiCIF);
	// off runs ordinary single-threaded tasks that each build private hash
	// tables.
	MultiThreaded bool
	// InMapperCombining accumulates the algebraic sum aggregate in a
	// per-thread hash table inside the map task, emitting one record per
	// group at reader close instead of one per joined row (the combiner
	// then sees ~|groups| entries, and sort/combine/spill shrink
	// proportionally); off emits per joined row and leaves all map-side
	// aggregation to the combiner.
	InMapperCombining bool

	// explicit distinguishes a deliberately constructed Features value from
	// the zero value: NoFeatures() sets it, so "everything off" survives the
	// Options normalization that maps the plain zero value to defaults.
	explicit bool
}

// DefaultFeatures returns the full Clydesdale configuration (every
// technique on). This is what a zero Options.Features resolves to.
func DefaultFeatures() Features {
	return Features{ColumnarStorage: true, BlockIteration: true, MultiThreaded: true, InMapperCombining: true, explicit: true}
}

// NoFeatures returns the everything-off ablation baseline. It is NOT the
// zero value: a zero Options.Features means "defaults", so the all-off
// configuration must be requested explicitly.
func NoFeatures() Features { return Features{explicit: true} }

// Options configures the engine.
type Options struct {
	// Features selects the ablation configuration. The zero value means all
	// techniques on (DefaultFeatures); use NoFeatures() for the all-off
	// baseline.
	Features Features
	// Tables, when non-nil, supplies the dimension hash tables for the
	// single-pass plan instead of per-job builds — the hook a serving layer
	// uses to share tables across queries. The provider owns node memory
	// accounting and build instrumentation for the tables it hands out.
	Tables TableProvider
	// Reducers is the grouped-aggregation parallelism; <= 0 uses one per
	// worker node (the paper's one reduce slot per node).
	Reducers int
	// BlockRows is the B-CIF block size; <= 0 uses 1024.
	BlockRows int
	// MultiSplitPack is how many partitions MultiCIF packs per multi-split;
	// <= 0 uses the cluster's map-slot count (one constituent split per
	// thread).
	MultiSplitPack int
	// ProbeMostSelectiveFirst reorders the early-out probe sequence by
	// ascending hash-table size (most selective dimension first) instead of
	// the query's dimension order. The paper probes in plan order (§4.2);
	// this option ablates that design choice — see
	// BenchmarkProbeOrderSelectivity.
	ProbeMostSelectiveFirst bool
	// NoScanPruning disables zone-map partition pruning (including the
	// driver-side FK-range hints) for ablation; every partition is scanned.
	NoScanPruning bool
	// NoLateMaterialization disables predicate-first column decoding in the
	// block scan for ablation; all projected columns decode eagerly.
	NoLateMaterialization bool
	// NoCodeSpacePreds disables compressed execution for ablation:
	// predicates evaluate over materialized values instead of dictionary
	// codes, delta range fusion is off, and the probe uses the hash table
	// instead of dictionary side tables.
	NoCodeSpacePreds bool
	// NoBloomPushdown disables semi-join bloom pushdown into the fact scan
	// for ablation; rows that would miss the probe are dropped at the probe
	// instead of in the scan.
	NoBloomPushdown bool
	// Speculative enables MapReduce speculative execution for the query
	// jobs: once the pending queue drains, still-running map tasks get
	// backup attempts on other nodes, masking stragglers (slow disks, hot
	// nodes) at the cost of duplicate work.
	Speculative bool
}

// Engine executes star queries as single MapReduce jobs.
type Engine struct {
	mr    *mr.Engine
	cat   *Catalog
	feats Features
	opts  Options
	snaps *colstore.Snapshots

	// dimMu guards dims, the driver's per-dimension memo entries (encoded
	// master copy, statistics, prune hints, blooms), each for one table
	// generation — see driverdim.go.
	dimMu sync.Mutex
	dims  map[string]*driverDim
}

// New creates an engine over a MapReduce engine and a catalog.
func New(mrEngine *mr.Engine, cat *Catalog, opts Options) *Engine {
	feats := opts.Features
	if feats == (Features{}) {
		feats = DefaultFeatures()
	}
	if opts.Reducers <= 0 {
		opts.Reducers = len(mrEngine.Cluster().Nodes())
	}
	if opts.BlockRows <= 0 {
		opts.BlockRows = 1024
	}
	if opts.MultiSplitPack <= 0 {
		opts.MultiSplitPack = mrEngine.Cluster().Config().MapSlots
	}
	return &Engine{mr: mrEngine, cat: cat, feats: feats, opts: opts,
		snaps: colstore.NewSnapshots(mrEngine.FS())}
}

// Catalog returns the engine's catalog.
func (e *Engine) Catalog() *Catalog { return e.cat }

// Snapshots returns the engine's partition-visibility registry. Every fact
// scan the engine runs pins its partition list here at plan time, so
// ingestion paths (roll-in, compaction, retention) must publish and retire
// through the same registry to stay atomic with respect to queries.
func (e *Engine) Snapshots() *colstore.Snapshots { return e.snaps }

// Report describes one executed query.
type Report struct {
	Query    string
	Job      *mr.JobResult
	Total    time.Duration
	SortTime time.Duration
	// Staged reports whether the staged (one pass per dimension) plan ran,
	// either because the plan chose it or as the star join's OOM fallback.
	Staged bool
	// Cascade reports whether the cascading map-side join executor ran;
	// CascadePasses counts its map-side join jobs (the star pass plus one
	// per snowflake edge).
	Cascade       bool
	CascadePasses int
	// PartitionsPruned and BytesSkipped summarize zone-map partition
	// pruning on the fact scan (the scan.* counters).
	PartitionsPruned int64
	BytesSkipped     int64
	// RowsBloomSkipped counts fact rows dropped in the scan by semi-join
	// bloom pushdown (rows whose FK provably misses the dimension probe).
	RowsBloomSkipped int64
}

// fillScanStats copies the pruning counters into the report.
func (r *Report) fillScanStats(c *mr.Counters) {
	if c == nil {
		return
	}
	r.PartitionsPruned = c.Get(colstore.CtrPartitionsPruned)
	r.BytesSkipped = c.Get(colstore.CtrBytesSkipped)
	r.RowsBloomSkipped = c.Get(colstore.CtrRowsBloomSkipped)
}

// Run executes a bound star plan the way the paper does: the single-pass
// star join (StarPlan), falling back to the staged per-dimension plan when
// the dimension hash tables exceed node memory (§5.1; Report.Staged says
// whether it did). Callers that want the cost-based chooser to pick the
// shape — including the cascading map-side join for snowflake plans — go
// through PlanLogical and RunPlan instead. ctx cancels the query; the error
// then matches the context cause and mr.ErrCanceled.
func (e *Engine) Run(ctx context.Context, l *plan.Logical) (*results.ResultSet, *Report, error) {
	p, err := StarPlan(l)
	if err != nil {
		return nil, nil, err
	}
	return e.RunPlan(ctx, p)
}

// traceRoot makes the query the root of its own trace when tracing is on
// and no caller owns one (serve.Session puts a SpanContext in ctx; a
// standalone CLI or test does not). The returned context carries the root
// span context for the jobs below; the returned finish emits the root
// "query" span — call it exactly once, after the query ends.
func (e *Engine) traceRoot(ctx context.Context, name string) (context.Context, func(error)) {
	tr := e.mr.Tracer()
	if _, ok := obs.FromContext(ctx); ok || !tr.Enabled() {
		return ctx, func(error) {}
	}
	sc := obs.NewTrace()
	start := time.Now()
	return obs.ContextWith(ctx, sc), func(err error) {
		status := "ok"
		if err != nil {
			status = "error"
		}
		s := obs.Span{Name: obs.PhaseQuery, Start: start, End: time.Now(),
			Attrs: obs.Attrs("query", name, "status", status)}
		sc.Fill(&s, "")
		tr.Emit(s)
	}
}

// phaseSpan opens a driver-side phase span under the query's trace root and
// returns its closer; a no-op when tracing is off or ctx carries no trace.
func (e *Engine) phaseSpan(ctx context.Context, name string) func() {
	tr := e.mr.Tracer()
	sc, ok := obs.FromContext(ctx)
	if !ok || !tr.Enabled() {
		return func() {}
	}
	start := time.Now()
	return func() {
		s := obs.Span{Name: name, Start: start, End: time.Now()}
		sc.NewChild().Fill(&s, sc.Span)
		tr.Emit(s)
	}
}

// runStar runs the single-pass star join: one MapReduce job for the join +
// aggregation, then the driver-side final sort (Figure 4 line 33).
func (e *Engine) runStar(ctx context.Context, sh *plan.Shape) (*results.ResultSet, *Report, error) {
	start := time.Now()
	if err := requireStar(sh); err != nil {
		return nil, nil, err
	}
	dims, err := e.dimView(sh.Joins)
	if err != nil {
		return nil, nil, err
	}
	cacheDone := e.phaseSpan(ctx, obs.PhaseDimCache)
	if err := dims.cacheOnNodes(e.mr.FS(), sh.Joins); err != nil {
		cacheDone()
		return nil, nil, err
	}
	cacheDone()

	var cols []string
	if e.feats.ColumnarStorage {
		// Sorted, not the shape's bind order: the CIF reader yields columns
		// in this order, which fixes the probe's read layout.
		cols = sh.FactColumns()
		sort.Strings(cols)
	}
	factSchema, err := e.factReaderSchema(cols)
	if err != nil {
		return nil, nil, err
	}
	runner, err := newStarJoinRunner(e, sh, factSchema)
	if err != nil {
		return nil, nil, err
	}

	cfg := e.mr.Cluster().Config()
	conf := mr.NewJobConf()
	if e.feats.MultiThreaded {
		// One map task per node (capacity scheduling via a whole-node memory
		// request), JVM reuse for hash-table sharing across consecutive
		// tasks, MultiCIF packing so each thread gets its own reader.
		conf.SetInt(mr.ConfTaskMemory, cfg.MemoryPerNode)
		conf.SetBool(mr.ConfJVMReuse, true)
		conf.SetInt(mr.ConfMultiSplitPack, int64(e.opts.MultiSplitPack))
		conf.SetInt(mr.ConfMapThreads, int64(cfg.MapSlots))
	}
	if e.opts.Speculative {
		conf.SetBool(mr.ConfSpeculative, true)
	}

	numReduce := e.opts.Reducers
	if len(sh.GroupBy) == 0 {
		numReduce = 1
	}
	var hints []expr.Pred
	if !e.opts.NoScanPruning {
		hints = dims.fkPruneHints(sh.Joins)
	}
	var filters []colstore.KeyFilter
	if !e.opts.NoBloomPushdown {
		filters = dims.semiJoinFilters(sh.Joins)
	}
	// Pin the fact partition list once, here at plan time: a roll-in,
	// compaction, or retention landing while the job runs changes what
	// ListPartitions would return, but not what this query scans.
	snap, err := e.snaps.Acquire(e.cat.FactDir)
	if err != nil {
		return nil, nil, err
	}
	defer snap.Release()
	out := &mr.MemoryOutput{}
	job := &mr.Job{
		Name: "clydesdale-" + sh.Name,
		Conf: conf,
		Input: &colstore.CIFInput{
			Dir: e.cat.FactDir, Columns: cols, Schema: e.cat.FactSchema, BlockRows: e.opts.BlockRows,
			Snapshot: snap.Parts,
			Pred:     sh.FactPred, PrunePreds: hints, EagerColumns: factFKs(sh.Joins), KeyFilters: filters,
			DisablePruning: e.opts.NoScanPruning, DisableLateMat: e.opts.NoLateMaterialization,
			DisableCodeSpacePreds: e.opts.NoCodeSpacePreds,
		},
		Output: out,
		NewMapRunner: func() mr.MapRunner {
			return runner
		},
		NewReducer:     func() mr.Reducer { return sumReducer{} },
		NewCombiner:    func() mr.Reducer { return sumReducer{} },
		NumReduceTasks: numReduce,
		KeySchema:      sh.GroupSchema(),
		ValueSchema:    aggValueSchema,
	}

	res, err := e.mr.Submit(ctx, job)
	if err != nil {
		return nil, nil, fmt.Errorf("core: %s: %w", sh.Name, err)
	}

	rs := collectRows(sh.ResultSchema(), len(sh.GroupBy) > 0, out)
	sortStart := time.Now()
	if err := sortResult(rs, sh); err != nil {
		return nil, nil, err
	}
	report := &Report{
		Query:    sh.Name,
		Job:      res,
		SortTime: time.Since(sortStart),
		Total:    time.Since(start),
	}
	report.fillScanStats(res.Counters)
	return rs, report, nil
}

// sortResult applies the shape's effective ordering (Shape.Orders) to the
// collected rows — the driver-side final sort every executor ends with.
func sortResult(rs *results.ResultSet, sh *plan.Shape) error {
	keys := sh.Orders()
	if len(keys) == 0 {
		return nil
	}
	orders := make([]results.Order, len(keys))
	for i, o := range keys {
		orders[i] = results.Order{Col: o.Col, Desc: o.Desc}
	}
	return rs.Sort(orders)
}

// factReaderSchema computes the schema the CIF reader will yield.
func (e *Engine) factReaderSchema(cols []string) (*records.Schema, error) {
	if cols == nil {
		return e.cat.FactSchema, nil
	}
	return e.cat.FactSchema.Project(cols...)
}
