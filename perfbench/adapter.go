package main

// adapter.go is the only file of the benchmark that imports the
// repository's packages. Every workload reaches the system through the
// functions below, so an API change in the program (retiring core.Query,
// say) changes this file and nothing else.

import (
	"context"
	"fmt"
	"io"
	"time"

	"clydesdale/internal/cluster"
	"clydesdale/internal/colstore"
	"clydesdale/internal/core"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/mr"
	"clydesdale/internal/obs"
	"clydesdale/internal/plan"
	"clydesdale/internal/records"
	"clydesdale/internal/refexec"
	"clydesdale/internal/results"
	"clydesdale/internal/serve"
	"clydesdale/internal/sql"
	"clydesdale/internal/ssb"
)

type (
	logical    = plan.Logical
	physical   = plan.Physical
	resultSet  = results.ResultSet
	record     = records.Record
	span       = obs.Span
	memorySink = obs.MemorySink
	planStats  = plan.Stats
	catalog    = core.Catalog
)

var newMemorySink = obs.NewMemorySink

// rowSource streams the rows of a table, as the reference executor reads
// them.
type rowSource func(table string, fn func(record) error) error

// workers is the simulated cluster size every workload runs on.
const workers = 4

// clusterProfile names the cluster configuration in the run header.
const clusterProfile = "cluster.Testing(4), TimeScale 0"

// system is one simulated cluster with data loaded: filesystem, MapReduce
// runtime and catalog. The tracer starts with no sinks, which the program
// treats as tracing off; traceOn attaches the benchmark's sink.
type system struct {
	c      *cluster.Cluster
	fs     *hdfs.FileSystem
	mr     *mr.Engine
	cat    *core.Catalog
	tracer *obs.Tracer
	reg    *obs.Registry
}

func newSystem(seed uint64) *system {
	c := cluster.New(cluster.Testing(workers))
	fs := hdfs.New(c, hdfs.Options{Seed: int64(seed)})
	tr := obs.NewTracer()
	reg := obs.NewRegistry()
	return &system{c: c, fs: fs, tracer: tr, reg: reg,
		mr: mr.NewEngine(c, fs, mr.Options{Tracer: tr, Metrics: reg})}
}

// traceOn turns on the program's own tracing: MapReduce task spans, HDFS
// read spans and the spans the session emits all flow into sink.
func (s *system) traceOn(sink obs.Sink) {
	s.fs.Observe(s.tracer, s.reg)
	s.tracer.AddSink(sink)
}

// ssbData is the SSB dataset of a run.
type ssbData struct {
	gen  *ssb.Generator
	base int64 // fact rows loaded at set-up
	// feed generates the fact rows rolled in after set-up. Its dates run
	// from the first day to the last over its rows, so roll-ins land
	// throughout the date range the queries read.
	feed *ssb.Generator
}

// loadSSB generates the SSB tables from seed and loads them: the fact
// table as CIF, dimensions as row tables copied to every node.
func loadSSB(s *system, factRows int64, dimScale float64, seed uint64) (*ssbData, error) {
	gen := ssb.NewBenchGenerator(dimScale, factRows, seed)
	lay, err := ssb.Load(s.fs, gen, "/ssb", ssb.LoadOptions{SkipRC: true})
	if err != nil {
		return nil, err
	}
	s.cat = lay.Catalog()
	if _, err := core.EnsureCatalogCached(s.fs, s.cat); err != nil {
		return nil, err
	}
	feed := ssb.NewBenchGenerator(dimScale, feedRows, seed^0x5eed)
	return &ssbData{gen: gen, base: gen.LineorderRows(), feed: feed}, nil
}

// snowData is the snowflake dataset of a run: dimension rows from the
// shape, fact rows from the run seed.
type snowData struct{ dims, fact *ssb.Snowflake }

// loadSnow loads a snowflake whose shape (chains, depths, table sizes),
// query set and dimension rows are fixed by shapeSeed, while its fact rows
// come from seed. The dimension tables hold 32 to 192 rows each, so
// drawing them per seed would move each query's selectivity, and so its
// work, by tens of percent: a different workload per seed rather than
// different rows of one.
func loadSnow(s *system, factRows int64, shapeSeed, seed uint64) (*snowData, []*logical, error) {
	shape := ssb.GenSnowflake(shapeSeed, factRows)
	var qs []*logical
	for i := int64(0); i < snowQueries; i++ {
		qs = append(qs, shape.RandomSnowQuery(i))
	}
	fact := *shape
	fact.Seed = seed
	lay, err := ssb.LoadSnowflake(s.fs, &fact, "/snow")
	if err != nil {
		return nil, nil, err
	}
	// The dimensions load on their own, beside a one-row fact table that
	// nothing reads.
	dims := *shape
	dims.FactRows = 1
	dimLay, err := ssb.LoadSnowflake(s.fs, &dims, "/snow-dims")
	if err != nil {
		return nil, nil, err
	}
	s.cat = lay.Catalog(&fact)
	s.cat.DimDirs = dimLay.Dims
	if _, err := core.EnsureCatalogCached(s.fs, s.cat); err != nil {
		return nil, nil, err
	}
	return &snowData{dims: shape, fact: &fact}, qs, nil
}

func (d *snowData) each(table string, fn func(record) error) error {
	if table == d.fact.FactName {
		return d.fact.Each(table, fn)
	}
	return d.dims.Each(table, fn)
}

// engine is a bare core.Engine: no table provider, no result cache.
type engine struct{ e *core.Engine }

func newEngine(s *system) *engine { return &engine{core.New(s.mr, s.cat, core.Options{})} }

// parseSQL binds a workload query against the catalog; the plan carries
// the query's name, which the session uses as its SLO class.
func parseSQL(q sqlQuery, cat *core.Catalog) (*logical, error) {
	l, err := sql.Parse(q.text, cat)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", q.name, err)
	}
	l.Name = q.name
	return l, nil
}

func (e *engine) planStats(l *logical) (*plan.Stats, error) { return e.e.PlanStats(l) }

func choose(l *logical, st *plan.Stats) (*physical, error) { return plan.Choose(l, st) }

func kindOf(p *physical) string { return p.Kind.String() }

func (e *engine) runPlan(ctx context.Context, p *physical) (*resultSet, counts, error) {
	rs, rep, err := e.e.RunPlan(ctx, p)
	if err != nil {
		return nil, nil, err
	}
	return rs, countsOf(rep), nil
}

// session is a serve.Session with its defaults, capped at maxConcurrent
// running queries.
type session struct{ s *serve.Session }

func newSession(sys *system, maxConcurrent int, ingestPartitionRows int64) *session {
	return &session{serve.New(sys.mr, sys.cat, serve.Options{
		MaxConcurrent:       maxConcurrent,
		QueueDepth:          1024,
		ProfileDepth:        -1,
		IngestPartitionRows: ingestPartitionRows,
	})}
}

func (s *session) close() { s.s.Close() }

// query serves a bound logical plan. The session takes a core.Query, so
// this is where the SQL path converts; it is the one function to change
// once the session accepts logical plans.
func (s *session) query(ctx context.Context, tenant string, l *logical) (*resultSet, counts, error) {
	q, err := core.QueryFromLogical(l)
	if err != nil {
		return nil, nil, err
	}
	rs, rep, err := s.s.Query(serve.WithTenant(ctx, tenant), q)
	if err != nil {
		return nil, nil, err
	}
	return rs, countsOf(rep), nil
}

// rollInFact appends rows [lo, hi) of the fact feed and returns the rows
// the session acknowledged.
func (s *session) rollInFact(d *ssbData, lo, hi int64) (int64, error) {
	return s.s.RollIn(ssb.TableLineorder, func(emit func(records.Record) error) error {
		for i := lo; i < hi; i++ {
			if err := emit(d.feed.Lineorder(i)); err != nil {
				return err
			}
		}
		return nil
	})
}

// rollInSuppliers appends supplier rows [lo, hi); rows past the generated
// table are new keys no fact row references, so answers do not change but
// every cache derived from the supplier table is invalidated.
func (s *session) rollInSuppliers(d *ssbData, lo, hi int64) (int64, error) {
	return s.s.RollIn(ssb.TableSupplier, func(emit func(records.Record) error) error {
		for i := lo; i < hi; i++ {
			if err := emit(d.gen.Supplier(i)); err != nil {
				return err
			}
		}
		return nil
	})
}

// compactFact folds small fact partitions into full-size ones clustered
// on the order date.
func (s *session) compactFact(targetRows int64) error {
	_, err := s.s.CompactFact(colstore.CompactOptions{
		MinRows: targetRows / 2, TargetRows: targetRows, ClusterBy: "lo_orderdate"})
	return err
}

// serveStats is the session's counters in the benchmark's vocabulary.
type serveStats struct {
	tableHits, tableMisses, tableBuilds, tableEvictions int64
	resultHits, resultSubsumed, resultMisses            int64
	compactedRows, published, retired, invalidations    int64
}

func (s *session) stats() serveStats {
	st := s.s.Stats()
	return serveStats{
		tableHits: st.Hits, tableMisses: st.Misses, tableBuilds: st.Builds, tableEvictions: st.Evictions,
		resultHits: st.ResultHits, resultSubsumed: st.ResultSubsumedHits, resultMisses: st.ResultMisses,
		compactedRows: st.CompactedRows, published: st.PartitionsPublished, retired: st.PartitionsRetired,
		invalidations: st.TableInvalidations + st.ResultInvalidations,
	}
}

func (s *system) jobsSubmitted() int64 { return s.reg.Counter("mr.jobs_submitted").Value() }

// factPartitions counts the committed partitions of the fact table.
func (s *system) factPartitions() (int, error) {
	parts, err := colstore.ListPartitions(s.fs, s.cat.FactDir)
	return len(parts), err
}

// factRowCount scans the committed fact table.
func (s *system) factRowCount() (int64, error) {
	var n int64
	err := colstore.ScanCIFTable(s.fs, s.cat.FactDir, "", func(records.Record) error {
		n++
		return nil
	})
	return n, err
}

// substrate is the filesystem and modeled-cluster accounting.
type substrate struct {
	readLocal, readRemote, written int64
	modelTime                      time.Duration
	diskRead, net                  int64
}

func (s *system) substrate() substrate {
	m := s.fs.Metrics().Snapshot()
	t := s.c.TotalStats()
	return substrate{readLocal: m.LocalBytesRead, readRemote: m.RemoteBytesRead, written: m.BytesWritten,
		modelTime: t.ModelTime, diskRead: t.DiskReadBytes, net: t.NetBytes}
}

// counts is a query's job counters under the benchmark's names.
type counts map[string]int64

// counterNames maps the benchmark's counter names to the program's.
var counterNames = map[string]string{
	"hash_built":         core.CtrHashTablesBuilt,
	"hash_build_ns":      core.CtrHashBuildNanos,
	"probe_ns":           core.CtrProbeNanos,
	"probe_rows":         core.CtrProbeRows,
	"probe_emits":        core.CtrProbeEmits,
	"code_probe_rows":    core.CtrCodeProbeRows,
	"rows_scanned":       colstore.CtrRowsScanned,
	"rows_pruned":        colstore.CtrRowsPruned,
	"rows_late_skipped":  colstore.CtrRowsLateSkipped,
	"rows_bloom_skipped": colstore.CtrRowsBloomSkipped,
	"partitions_pruned":  colstore.CtrPartitionsPruned,
	"bytes_skipped":      colstore.CtrBytesSkipped,
	"map_tasks":          mr.CtrMapTasks,
	"reduce_tasks":       mr.CtrReduceTasks,
	"data_local_maps":    mr.CtrDataLocalMaps,
	"map_output_records": mr.CtrMapOutputRecords,
	"shuffle_bytes":      mr.CtrShuffleBytes,
}

func countsOf(rep *core.Report) counts {
	c := counts{"cascade_passes": int64(rep.CascadePasses)}
	if rep.Job != nil && rep.Job.Counters != nil {
		for name, ctr := range counterNames {
			c[name] = rep.Job.Counters.Get(ctr)
		}
	}
	return c
}

func (c counts) add(o counts) {
	for k, v := range o {
		c[k] += v
	}
}

// reference runs the logical plan on the in-memory reference executor.
func reference(l *logical, each rowSource) (*resultSet, error) {
	return refexec.RunLogical(l, each)
}

// sameAnswer compares a served answer with the reference answer.
func sameAnswer(got, want *resultSet) error {
	if got == nil {
		return fmt.Errorf("no result")
	}
	if ok, why := results.Equivalent(got, want, 1e-9); !ok {
		return fmt.Errorf("answer differs from the reference: %s", why)
	}
	return nil
}

// each streams the generated SSB tables plus the rows rolled in since
// set-up: feed rows [0, extraFact) and supplier rows past the generated
// ones, [suppliers, suppliers+extraSupp).
func (d *ssbData) each(extraFact, extraSupp int64) rowSource {
	return func(table string, fn func(record) error) error {
		if err := d.gen.Each(table, fn); err != nil {
			return err
		}
		switch table {
		case ssb.TableLineorder:
			for i := int64(0); i < extraFact; i++ {
				if err := fn(d.feed.Lineorder(i)); err != nil {
					return err
				}
			}
		case ssb.TableSupplier:
			n := d.gen.SupplierRows()
			for i := n; i < n+extraSupp; i++ {
				if err := fn(d.gen.Supplier(i)); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// traceProfile is what the program's profiler gives for one trace: each
// phase's exclusive wall, and the wall and self time of every span a
// MapReduce job ran under (Engine.RunPlan, or the session's query span).
type traceProfile struct {
	phases            map[string]time.Duration
	runWalls, runSelf []time.Duration
}

func profileTrace(spans []span) (*traceProfile, error) {
	p, err := obs.BuildProfile(spans, obs.ProfileOptions{})
	if err != nil {
		return nil, err
	}
	out := &traceProfile{phases: make(map[string]time.Duration, len(p.Phases))}
	for _, ph := range p.Phases {
		out.phases[ph.Name] = ph.Wall
	}
	var walk func(n *obs.ProfileNode)
	walk = func(n *obs.ProfileNode) {
		for _, c := range n.Children {
			if c.Span.Name == "job" {
				out.runWalls = append(out.runWalls, n.Span.Duration())
				out.runSelf = append(out.runSelf, n.Self)
				break
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(p.Root)
	return out, nil
}

// withTrace makes ctx carry the benchmark's span as the parent of every
// span the program emits for the call.
func withTrace(ctx context.Context, trace, id string) context.Context {
	return obs.ContextWith(ctx, obs.SpanContext{Trace: trace, Span: id})
}

// writeSpans exports spans as JSON lines.
func writeSpans(w io.Writer, spans []span) error {
	sink := obs.NewJSONLSink(w)
	for _, s := range spans {
		sink.Emit(s)
	}
	return sink.Err()
}

// describe lists the table sizes for the run header.
func (d *ssbData) describe() string {
	g := d.gen
	return fmt.Sprintf("lineorder=%d customer=%d supplier=%d part=%d date=%d",
		g.LineorderRows(), g.CustomerRows(), g.SupplierRows(), g.PartRows(), g.DateRows())
}

func (d *snowData) describe() string {
	s := fmt.Sprintf("fact=%d", d.fact.FactRows)
	for _, t := range d.fact.Tables {
		s += fmt.Sprintf(" %s=%d", t.Name, t.Rows)
	}
	return s
}
