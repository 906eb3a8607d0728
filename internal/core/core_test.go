package core_test

import (
	"context"
	"fmt"
	"strconv"
	"testing"

	"clydesdale/internal/cluster"
	"clydesdale/internal/colstore"
	"clydesdale/internal/core"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/mr"
	"clydesdale/internal/obs"
	"clydesdale/internal/plan"
	"clydesdale/internal/refexec"
	"clydesdale/internal/results"
	"clydesdale/internal/ssb"
)

type env struct {
	cluster *cluster.Cluster
	fs      *hdfs.FileSystem
	mr      *mr.Engine
	gen     *ssb.Generator
	lay     *ssb.Layout
}

func newEnv(t *testing.T, workers int, sf float64) *env {
	t.Helper()
	c := cluster.New(cluster.Testing(workers))
	fs := hdfs.New(c, hdfs.Options{BlockSize: 1 << 16, Seed: 23})
	gen := ssb.NewGenerator(sf, 42)
	lay, err := ssb.Load(fs, gen, "/ssb", ssb.LoadOptions{SkipRC: true, PartitionRows: 1000})
	if err != nil {
		t.Fatal(err)
	}
	return &env{cluster: c, fs: fs, mr: mr.NewEngine(c, fs, mr.Options{}), gen: gen, lay: lay}
}

func (e *env) engine(opts core.Options) *core.Engine {
	return core.New(e.mr, e.lay.Catalog(), opts)
}

// snowEnv is GenSnowflake(42) loaded on a three-node cluster: the dataset
// whose generated queries the chooser runs as cascades.
type snowEnv struct {
	mr   *mr.Engine
	snow *ssb.Snowflake
	cat  *core.Catalog
}

func newSnowEnv(t *testing.T) *snowEnv {
	t.Helper()
	c := cluster.New(cluster.Testing(3))
	fs := hdfs.New(c, hdfs.Options{BlockSize: 1 << 16, Seed: 42})
	snow := ssb.GenSnowflake(42, 3000)
	lay, err := ssb.LoadSnowflake(fs, snow, "/snow")
	if err != nil {
		t.Fatal(err)
	}
	return &snowEnv{mr: mr.NewEngine(c, fs, mr.Options{}), snow: snow, cat: lay.Catalog(snow)}
}

func (e *snowEnv) engine(opts core.Options) *core.Engine {
	return core.New(e.mr, e.cat, opts)
}

// cascade is one feasible cascade candidate with its reference answer.
type cascade struct {
	name string
	plan *plan.Physical
	want *results.ResultSet
}

// cascades returns the feasible cascade candidates of the first n random
// snowflake queries, costed with eng's statistics.
func (e *snowEnv) cascades(t *testing.T, eng *core.Engine, n int64) []cascade {
	t.Helper()
	var out []cascade
	for qi := int64(0); qi < n; qi++ {
		l := e.snow.RandomSnowQuery(qi)
		st, err := eng.PlanStats(l)
		if err != nil {
			t.Fatal(err)
		}
		cands, err := plan.Candidates(l, st)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refexec.RunLogical(l, e.snow.Each)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range cands {
			if p.Kind == plan.KindCascade && p.Feasible {
				out = append(out, cascade{name: fmt.Sprintf("snow-q%d", qi), plan: p, want: want})
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("no feasible cascade candidate among the snowflake queries")
	}
	return out
}

// TestAllQueriesMatchReference is the headline integration test: every SSB
// query on the full Clydesdale stack must agree with the in-memory
// reference executor.
func TestAllQueriesMatchReference(t *testing.T) {
	e := newEnv(t, 3, 0.002)
	eng := e.engine(core.Options{})
	for _, q := range ssb.Queries() {
		rs, rep, err := eng.Run(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		want, err := refexec.RunLogical(q, e.gen.Each)
		if err != nil {
			t.Fatalf("%s ref: %v", q.Name, err)
		}
		if ok, why := results.Equivalent(rs, want, 1e-9); !ok {
			t.Errorf("%s: %s\nclydesdale:\n%svs reference:\n%s", q.Name, why, rs, want)
		}
		// Every fact row is accounted for exactly once: probed, dropped by
		// the late-materialization selection vector, dropped by a semi-join
		// bloom filter, or in a partition the zone maps pruned.
		c := rep.Job.Counters
		accounted := c.Get(core.CtrProbeRows) +
			c.Get(colstore.CtrRowsLateSkipped) +
			c.Get(colstore.CtrRowsBloomSkipped) +
			c.Get(colstore.CtrRowsPruned)
		if accounted != e.gen.LineorderRows() {
			t.Errorf("%s: probed %d + late-skipped %d + bloom-skipped %d + pruned %d = %d rows, want %d",
				q.Name, c.Get(core.CtrProbeRows), c.Get(colstore.CtrRowsLateSkipped),
				c.Get(colstore.CtrRowsBloomSkipped), c.Get(colstore.CtrRowsPruned),
				accounted, e.gen.LineorderRows())
		}
	}
}

// figure9Configs are the Figure 9 ablation configurations.
var figure9Configs = map[string]core.Features{
	"all":          core.DefaultFeatures(),
	"no-block":     {ColumnarStorage: true, BlockIteration: false, MultiThreaded: true},
	"no-columnar":  {ColumnarStorage: false, BlockIteration: true, MultiThreaded: true},
	"no-threading": {ColumnarStorage: true, BlockIteration: true, MultiThreaded: false},
	"none":         core.NoFeatures(),
}

// TestAblationConfigsAgree reruns a grouped query — as the star job and as
// its staged plan — and the snowflake's cascade plans under every Figure 9
// configuration; every answer must match the reference executor. With
// multi-threading on, the cascade's head pass must probe on several
// threads, as the star job does.
func TestAblationConfigsAgree(t *testing.T) {
	e := newEnv(t, 3, 0.002)
	q, err := ssb.QueryByName("Q2.1")
	if err != nil {
		t.Fatal(err)
	}
	want, err := refexec.RunLogical(q, e.gen.Each)
	if err != nil {
		t.Fatal(err)
	}
	se := newSnowEnv(t)
	cascades := se.cascades(t, se.engine(core.Options{}), 3)
	for name, f := range figure9Configs {
		feats := f
		eng := e.engine(core.Options{Features: feats})
		rs, _, err := eng.Run(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ok, why := results.Equivalent(rs, want, 1e-9); !ok {
			t.Errorf("config %s: %s", name, why)
		}
		rs, _, err = runStaged(eng, q)
		if err != nil {
			t.Fatalf("%s staged: %v", name, err)
		}
		if ok, why := results.Equivalent(rs, want, 1e-9); !ok {
			t.Errorf("config %s staged: %s", name, why)
		}
		snowEng := se.engine(core.Options{Features: feats})
		for _, c := range cascades {
			rs, rep, err := snowEng.RunPlan(context.Background(), c.plan)
			if err != nil {
				t.Fatalf("%s %s cascade: %v", name, c.name, err)
			}
			if ok, why := results.Equivalent(rs, c.want, 1e-9); !ok {
				t.Errorf("config %s %s cascade: %s", name, c.name, why)
			}
			// The head pass is the only cascade pass the join runner runs.
			if threads := rep.Job.Counters.Get(core.CtrProbeThreads); feats.MultiThreaded && threads <= 1 {
				t.Errorf("config %s %s: cascade head pass probed on %d threads, want > 1", name, c.name, threads)
			}
		}
	}
}

// TestHashTablesBuiltOncePerNode verifies §5's headline property: with
// multi-threading + JVM reuse + one-task-per-node, the dimension hash
// tables are computed exactly once per node per query — and, for the
// staged and cascade plans, once per node per join pass.
func TestHashTablesBuiltOncePerNode(t *testing.T) {
	e := newEnv(t, 3, 0.002)
	q, _ := ssb.QueryByName("Q3.1")

	eng := e.engine(core.Options{})
	_, rep, err := eng.Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	builds := rep.Job.Counters.Get(core.CtrHashTablesBuilt)
	wantBuilds := int64(3 * len(e.cluster.Nodes())) // 3 dims × nodes
	if builds != wantBuilds {
		t.Errorf("multi-threaded: %d hash builds, want %d (3 dims × %d nodes)",
			builds, wantBuilds, len(e.cluster.Nodes()))
	}

	// Without multi-threading every map task builds privately.
	feats := core.Features{ColumnarStorage: true, BlockIteration: true, MultiThreaded: false}
	_, rep2, err := e.engine(core.Options{Features: feats}).Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	builds2 := rep2.Job.Counters.Get(core.CtrHashTablesBuilt)
	mapTasks := rep2.Job.Counters.Get(mr.CtrMapTasks)
	if builds2 != 3*mapTasks {
		t.Errorf("single-threaded: %d builds for %d tasks, want %d", builds2, mapTasks, 3*mapTasks)
	}
	if builds2 <= builds {
		t.Errorf("single-threaded should build more tables (%d vs %d)", builds2, builds)
	}

	// The staged plan probes one table per pass, the cascade all depth-1
	// tables in its head pass; every other job of those plans builds none.
	se := newSnowEnv(t)
	cascades := se.cascades(t, se.engine(core.Options{}), 1)
	plans := []struct {
		name    string
		mr      *mr.Engine
		perTask int64 // tables each join task builds
		run     func(core.Options) (*core.Report, error)
	}{
		{"staged Q3.1", e.mr, 1, func(opts core.Options) (*core.Report, error) {
			_, rep, err := runStaged(e.engine(opts), q)
			return rep, err
		}},
		{"cascade " + cascades[0].name, se.mr, int64(headTables(cascades[0].plan)), func(opts core.Options) (*core.Report, error) {
			_, rep, err := se.engine(opts).RunPlan(context.Background(), cascades[0].plan)
			return rep, err
		}},
	}
	for _, pl := range plans {
		// Multi-threaded: one build span per (pass, node) that ran the
		// pass, each building the pass's tables.
		sink := obs.NewMemorySink()
		pl.mr.SetTracer(obs.NewTracer(sink))
		rep, err := pl.run(core.Options{})
		pl.mr.SetTracer(nil)
		if err != nil {
			t.Fatalf("%s: %v", pl.name, err)
		}
		perPassNode := map[string]int{}
		var spanTables int64
		for _, s := range sink.Spans() {
			// Runner builds carry a table count; the cascade's side-bucket
			// loads, also hash-build spans, do not.
			if tables, ok := s.Attrs["tables"]; ok && s.Name == obs.PhaseHashBuild {
				perPassNode[s.Job+"/"+s.Node]++
				n, _ := strconv.ParseInt(tables, 10, 64)
				spanTables += n
			}
		}
		for k, n := range perPassNode {
			if n != 1 {
				t.Errorf("%s: pass/node %s built its tables %d times, want once", pl.name, k, n)
			}
		}
		got := rep.Job.Counters.Get(core.CtrHashTablesBuilt)
		if got == 0 || got != spanTables {
			t.Errorf("%s multi-threaded: %d hash builds, %d in build spans", pl.name, got, spanTables)
		}

		// Single-threaded: every join task (one probe thread each) builds
		// the pass's tables privately.
		rep, err = pl.run(core.Options{Features: feats})
		if err != nil {
			t.Fatalf("%s single-threaded: %v", pl.name, err)
		}
		tasks := rep.Job.Counters.Get(core.CtrProbeThreads)
		if got2 := rep.Job.Counters.Get(core.CtrHashTablesBuilt); tasks == 0 || got2 != pl.perTask*tasks {
			t.Errorf("%s single-threaded: %d builds for %d join tasks, want %d", pl.name, got2, tasks, pl.perTask*tasks)
		}
	}
}

// headTables counts a cascade plan's depth-1 steps: the tables its head
// pass probes.
func headTables(p *plan.Physical) int {
	n := 0
	for n < len(p.Steps) && p.Steps[n].Depth == 1 {
		n++
	}
	return n
}

// TestColumnarPruningReadsFewerBytes checks the I/O saving of CIF pruning.
func TestColumnarPruningReadsFewerBytes(t *testing.T) {
	e := newEnv(t, 2, 0.002)
	q, _ := ssb.QueryByName("Q1.1")
	// Warm the dimension cache so the one-time copy doesn't skew the
	// measured scan bytes.
	if _, err := core.EnsureCatalogCached(e.fs, e.lay.Catalog()); err != nil {
		t.Fatal(err)
	}

	readDelta := func(feats core.Features) int64 {
		before := e.fs.Metrics().Snapshot()
		// Zone-map pruning and bloom pushdown off: this test isolates the
		// saving of column projection alone (pruning has its own tests, and
		// bloom derivation adds driver-side dimension reads that would skew
		// the scan-byte comparison).
		eng := e.engine(core.Options{Features: feats, NoScanPruning: true, NoBloomPushdown: true})
		if _, _, err := eng.Run(context.Background(), q); err != nil {
			t.Fatal(err)
		}
		after := e.fs.Metrics().Snapshot()
		return (after.LocalBytesRead + after.RemoteBytesRead) - (before.LocalBytesRead + before.RemoteBytesRead)
	}
	pruned := readDelta(core.DefaultFeatures())
	full := readDelta(core.Features{ColumnarStorage: false, BlockIteration: true, MultiThreaded: true})
	if pruned*2 >= full {
		t.Errorf("pruned scan read %d bytes, full %d; expected a large saving", pruned, full)
	}
}

// TestMultiThreadedRunsOneTaskPerNode inspects the scheduling behaviour.
func TestMultiThreadedRunsOneTaskPerNode(t *testing.T) {
	e := newEnv(t, 3, 0.002)
	q, _ := ssb.QueryByName("Q2.1")
	_, rep, err := e.engine(core.Options{}).Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	// JVM reuse means at most one JVM started per node for the map side
	// (reducers may add their own; count map JVMs via reuse counter).
	jvms := rep.Job.Counters.Get(mr.CtrJVMsStarted)
	maxJVMs := int64(len(e.cluster.Nodes())) * 2 // map + reduce pools
	if jvms > maxJVMs {
		t.Errorf("JVMs started = %d, want <= %d", jvms, maxJVMs)
	}
	if rep.Job.Counters.Get(core.CtrHashReuses)+rep.Job.Counters.Get(core.CtrHashTablesBuilt) == 0 {
		t.Error("no hash table activity recorded")
	}
	// Probe threads per task should equal the packed split count (up to map
	// slots).
	threads := rep.Job.Counters.Get(core.CtrProbeThreads)
	tasks := rep.Job.Counters.Get(mr.CtrMapTasks)
	if threads <= tasks {
		t.Errorf("probe threads %d should exceed map tasks %d (multi-threading)", threads, tasks)
	}
}

// TestDimCache verifies the node-local dimension cache lifecycle, including
// recovery after a node loses its local storage.
func TestDimCache(t *testing.T) {
	e := newEnv(t, 3, 0.002)
	cat := e.lay.Catalog()
	n, err := core.EnsureCatalogCached(e.fs, cat)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4*3 { // 4 dims × 3 nodes
		t.Errorf("copied %d, want 12", n)
	}
	// Second call is a no-op.
	n, err = core.EnsureCatalogCached(e.fs, cat)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("recopied %d", n)
	}
	// A node that dies and revives lost its local copies; queries must
	// still work (re-copy from the HDFS master, §4).
	e.cluster.Node("node-1").Kill()
	if _, _, err := e.fs.OnNodeFailure("node-1"); err != nil {
		t.Fatal(err)
	}
	e.cluster.Node("node-1").Revive()
	q, _ := ssb.QueryByName("Q1.2")
	rs, _, err := e.engine(core.Options{}).Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := refexec.RunLogical(q, e.gen.Each)
	if ok, why := results.Equivalent(rs, want, 1e-9); !ok {
		t.Errorf("after node bounce: %s", why)
	}
}

// TestMemoryReservedDuringQuery ensures hash-table memory is accounted and
// released.
func TestMemoryReservedDuringQuery(t *testing.T) {
	e := newEnv(t, 2, 0.002)
	q, _ := ssb.QueryByName("Q4.1")
	if _, _, err := e.engine(core.Options{}).Run(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	for _, n := range e.cluster.Nodes() {
		if used := n.MemoryUsed(); used != 0 {
			t.Errorf("%s leaked %d bytes", n.ID(), used)
		}
	}
}

// TestQueryOOMWhenHashTablesExceedNode forces a tiny node memory budget.
func TestQueryOOMWhenHashTablesExceedNode(t *testing.T) {
	c := cluster.New(cluster.Config{Workers: 2, MapSlots: 2, ReduceSlots: 1, MemoryPerNode: 2048})
	fs := hdfs.New(c, hdfs.Options{BlockSize: 1 << 16, Seed: 5})
	gen := ssb.NewGenerator(0.002, 42)
	lay, err := ssb.Load(fs, gen, "/ssb", ssb.LoadOptions{SkipRC: true, PartitionRows: 1000})
	if err != nil {
		t.Fatal(err)
	}
	eng := core.New(mr.NewEngine(c, fs, mr.Options{}), lay.Catalog(), core.Options{})
	q, _ := ssb.QueryByName("Q3.1") // large-ish customer hash
	if _, _, err := eng.Run(context.Background(), q); err == nil {
		t.Error("expected OOM with a 2 KB node budget")
	}
}

// TestEstimateHashTableBytes checks the star-table footprint the one
// dimension-stats estimator reports, summed over a query's edges (what a
// Clydesdale node holds).
func TestEstimateHashTableBytes(t *testing.T) {
	gen := ssb.NewGenerator(0.002, 42)
	oneCopy := func(name string) int64 {
		t.Helper()
		q, _ := ssb.QueryByName(name)
		p, err := core.StarPlan(q)
		if err != nil {
			t.Fatal(err)
		}
		per, err := core.EstimateDimStats(p.Shape.Joins, gen.Each)
		if err != nil {
			t.Fatal(err)
		}
		var sum int64
		for _, ts := range per {
			if ts.FilteredRows > ts.Rows || ts.MapJoinBytes < 48*ts.FilteredRows {
				t.Errorf("%s: inconsistent stats %+v", name, ts)
			}
			sum += ts.HashBytes
		}
		return sum
	}
	b31, b32 := oneCopy("Q3.1"), oneCopy("Q3.2")
	if b31 <= 0 || b32 <= 0 {
		t.Fatal("estimates must be positive")
	}
	// Q3.1 (region predicate, 1/5 of customers) needs more memory than Q3.2
	// (nation predicate, 1/25) — the asymmetry behind the §6.4 OOMs.
	if b31 <= b32 {
		t.Errorf("Q3.1 estimate %d should exceed Q3.2 estimate %d", b31, b32)
	}
}

func TestValidationErrors(t *testing.T) {
	e := newEnv(t, 1, 0.002)
	eng := e.engine(core.Options{})
	// An aggregate-less plan fails to decompose.
	bad := &plan.Logical{Name: "no-agg", Root: &plan.Scan{
		Table: ssb.TableLineorder, Source: ssb.LineorderSchema, Fact: true}}
	if _, _, err := eng.Run(context.Background(), bad); err == nil {
		t.Error("expected validation error")
	}
}

// TestProbeOrderOptionAgrees verifies that reordering the early-out probe
// by selectivity changes no answers.
func TestProbeOrderOptionAgrees(t *testing.T) {
	e := newEnv(t, 2, 0.002)
	for _, q := range []string{"Q2.1", "Q4.1"} {
		query, err := ssb.QueryByName(q)
		if err != nil {
			t.Fatal(err)
		}
		base, _, err := e.engine(core.Options{}).Run(context.Background(), query)
		if err != nil {
			t.Fatal(err)
		}
		reord, _, err := e.engine(core.Options{ProbeMostSelectiveFirst: true}).Run(context.Background(), query)
		if err != nil {
			t.Fatal(err)
		}
		if ok, why := results.Equivalent(base, reord, 1e-9); !ok {
			t.Errorf("%s: probe order changed answers: %s", q, why)
		}
	}
}

// TestCombinerShrinksShuffle checks the partial aggregation Figure 4
// mentions: the combiner collapses per-task duplicate group keys, so the
// shuffle moves less data than the raw map output. In-mapper combining is
// disabled here so the combiner actually has duplicates to collapse — with
// it on, map output is already one record per group per task and the
// combiner is a no-op (TestInMapperCombiningShrinksMapOutput covers that).
func TestCombinerShrinksShuffle(t *testing.T) {
	e := newEnv(t, 2, 0.005)
	q, _ := ssb.QueryByName("Q1.1") // grand aggregate: every task combines to one pair
	feats := core.Features{ColumnarStorage: true, BlockIteration: true, MultiThreaded: true, InMapperCombining: false}
	_, rep, err := e.engine(core.Options{Features: feats}).Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	ctr := rep.Job.Counters
	mapOut := ctr.Get(mr.CtrMapOutputBytes)
	shuffled := ctr.Get(mr.CtrShuffleBytes)
	if mapOut == 0 {
		t.Fatal("no map output recorded")
	}
	if shuffled*2 > mapOut {
		t.Errorf("shuffle %d bytes vs map output %d; combiner ineffective", shuffled, mapOut)
	}
	if ctr.Get(mr.CtrCombineInput) <= ctr.Get(mr.CtrCombineOutput) {
		t.Errorf("combiner in=%d out=%d; no collapsing",
			ctr.Get(mr.CtrCombineInput), ctr.Get(mr.CtrCombineOutput))
	}
}

// TestInMapperCombiningShrinksMapOutput runs the same queries with in-mapper
// combining on and off and checks three things: the answers are identical,
// the probe counters are identical — CtrProbeRows/CtrProbeEmits count fact
// rows scanned and joined rows, not collector calls, so aggregating before
// the collector must not change them — and the map output actually shrinks
// to (at most) one record per group per probe thread.
func TestInMapperCombiningShrinksMapOutput(t *testing.T) {
	e := newEnv(t, 3, 0.005)
	for _, name := range []string{"Q1.1", "Q2.1"} { // grand aggregate + grouped
		q, err := ssb.QueryByName(name)
		if err != nil {
			t.Fatal(err)
		}
		on := core.DefaultFeatures()
		off := core.Features{ColumnarStorage: true, BlockIteration: true, MultiThreaded: true, InMapperCombining: false}
		rsOn, repOn, err := e.engine(core.Options{Features: on}).Run(context.Background(), q)
		if err != nil {
			t.Fatalf("%s combining on: %v", name, err)
		}
		rsOff, repOff, err := e.engine(core.Options{Features: off}).Run(context.Background(), q)
		if err != nil {
			t.Fatalf("%s combining off: %v", name, err)
		}
		if ok, why := results.Equivalent(rsOn, rsOff, 1e-9); !ok {
			t.Errorf("%s: combining changed answers: %s", name, why)
		}
		cOn, cOff := repOn.Job.Counters, repOff.Job.Counters
		for _, ctr := range []string{core.CtrProbeRows, core.CtrProbeEmits} {
			if cOn.Get(ctr) != cOff.Get(ctr) {
				t.Errorf("%s: %s = %d with combining, %d without; must not depend on the emit path",
					name, ctr, cOn.Get(ctr), cOff.Get(ctr))
			}
		}
		mapOn, mapOff := cOn.Get(mr.CtrMapOutputRecords), cOff.Get(mr.CtrMapOutputRecords)
		if mapOff != cOff.Get(core.CtrProbeEmits) {
			t.Errorf("%s: without combining map output %d records, want one per emit (%d)",
				name, mapOff, cOff.Get(core.CtrProbeEmits))
		}
		if mapOn >= mapOff {
			t.Errorf("%s: map output %d records with combining vs %d without; no shrink",
				name, mapOn, mapOff)
		}
	}
}
