// Package serve is the query-serving layer over core.Engine: it makes
// concurrent star-join workloads first-class. The paper's §8 leaves the
// multi-workload setting as future work; this layer supplies the three
// pieces that setting needs. (1) A cross-query dimension hash-table cache:
// per-node tables keyed by (dimDir, join-edge fingerprint) survive job
// completion in a residency-accounted LRU, so query N+1 probes the tables
// query N built. (2) Admission control: a query's estimated table memory is
// checked against a per-node budget before submission, and over-budget
// queries queue FIFO under a concurrency cap instead of racing node
// reservations into deadlock-by-OOM. (3) Cancellation: the caller's context
// flows through core.Engine.Run and mr.Engine.Submit down to task attempts,
// so abandoning a query provably releases every byte it reserved.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"clydesdale/internal/cluster"
	"clydesdale/internal/colstore"
	"clydesdale/internal/core"
	"clydesdale/internal/mr"
	"clydesdale/internal/obs"
	"clydesdale/internal/plan"
	"clydesdale/internal/records"
	"clydesdale/internal/results"
)

// ErrClosed is returned by Query after Close; check with errors.Is.
var ErrClosed = errors.New("serve: session closed")

// Options configures a Session.
type Options struct {
	// Engine is the underlying core engine configuration. Tables is
	// overwritten with the session's cross-query cache.
	Engine core.Options
	// MaxConcurrent caps queries executing simultaneously; <= 0 uses 4.
	MaxConcurrent int
	// QueueDepth bounds queries waiting for admission before Query returns
	// ErrQueueFull; < 0 means no queue (immediate rejection), 0 uses 32.
	QueueDepth int
	// CacheBudget is the per-node byte bound on resident cached tables;
	// <= 0 uses half the node memory.
	CacheBudget int64
	// AdmissionBudget is the per-node byte budget admission reserves
	// against; <= 0 uses CacheBudget.
	AdmissionBudget int64
	// TaskMemory is an additional per-query admission charge for working
	// state beyond the dimension tables; 0 charges tables only.
	TaskMemory int64
	// ProfileDepth is the flight recorder's capacity: how many recent query
	// profiles the session retains (the debug server's /profilez history).
	// 0 uses 16; negative disables per-query profiling entirely (no trace
	// collection, no assembly cost).
	ProfileDepth int
	// TenantWeights maps tenant identity (see WithTenant) to its fair-share
	// weight; missing tenants weigh 1. A tenant with weight 3 is admitted
	// roughly 3× the bytes of a weight-1 tenant under contention.
	TenantWeights map[string]int64
	// AgingPasses bounds queue starvation: a queued query that has watched
	// this many other admissions go by has its fair-share deficit gate
	// waived. 0 uses 64; negative disables aging.
	AgingPasses int
	// ResultCacheBudget bounds driver-resident cached result bytes for the
	// fingerprint result cache; 0 uses 64 MiB, negative disables the cache.
	ResultCacheBudget int64
	// IngestPartitionRows sizes the CIF partitions fact roll-in batches are
	// staged into; <= 0 uses colstore.DefaultPartitionRows. Small values
	// favor ingest latency and lean on the compactor to restore scan-sized
	// partitions.
	IngestPartitionRows int64
}

// Stats is a point-in-time snapshot of the session's serving counters.
type Stats struct {
	// Table cache.
	Hits, Misses, Builds, Evictions int64
	ResidentBytes                   int64
	// Admission control.
	Admitted, Rejected int64
	Running, Queued    int
	PeakConcurrent     int
	// Result cache.
	ResultHits, ResultSubsumedHits, ResultMisses int64
	ResultEvictions, ResultInvalidations         int64
	ResultBytes                                  int64
	// Ingestion.
	RollIns, RollInRows, RollInFailures int64
	Compactions, CompactedRows          int64
	PartitionsPublished                 int64 // roll-in + compaction output
	PartitionsRetired                   int64 // compaction input + retention
	TableInvalidations                  int64 // cached dim tables evicted/doomed by roll-in
}

// Session serves queries over one cluster, sharing dimension hash tables
// across them. Safe for concurrent use.
type Session struct {
	mrEng  *mr.Engine
	cat    *core.Catalog
	eng    *core.Engine
	cache  *tableCache
	adm    *admitter
	rcache *resultCache // nil when Options.ResultCacheBudget < 0
	opts   Options

	// collector buckets the session's spans by trace; recorder keeps the
	// recently assembled profiles. Both nil when profiling is disabled.
	collector *obs.TraceCollector
	recorder  *obs.FlightRecorder

	mu          sync.Mutex
	closed      bool
	wg          sync.WaitGroup
	unwatch     func() // cancels the cluster death watcher
	stopCompact func() // stops the background compactor; nil unless started

	// ingestMu serializes the write path — roll-in, compaction, retention
	// are single-writer; queries never take it.
	ingestMu sync.Mutex

	rollIns, rollInRows, rollInFailures atomic.Int64
	compactions, compactedRows          atomic.Int64
	partsPublished, partsRetired        atomic.Int64
	tableInvalidations                  atomic.Int64
}

// New creates a serving session over a MapReduce engine and catalog.
func New(mrEngine *mr.Engine, cat *core.Catalog, opts Options) *Session {
	if opts.MaxConcurrent <= 0 {
		opts.MaxConcurrent = 4
	}
	switch {
	case opts.QueueDepth == 0:
		opts.QueueDepth = 32
	case opts.QueueDepth < 0:
		opts.QueueDepth = 0
	}
	if opts.CacheBudget <= 0 {
		opts.CacheBudget = mrEngine.Cluster().Config().MemoryPerNode / 2
	}
	if opts.AdmissionBudget <= 0 {
		opts.AdmissionBudget = opts.CacheBudget
	}
	// The serving layer's accounting (SLO histograms, live gauges, /metrics)
	// needs a registry; give the engine one if its owner didn't.
	if mrEngine.Metrics() == nil {
		mrEngine.SetMetrics(obs.NewRegistry())
	}
	reg := mrEngine.Metrics()
	cache := newTableCache(opts.CacheBudget)
	engOpts := opts.Engine
	engOpts.Tables = cache
	var rcache *resultCache
	if opts.ResultCacheBudget >= 0 {
		budget := opts.ResultCacheBudget
		if budget == 0 {
			budget = 64 << 20
		}
		rcache = newResultCache(budget, reg)
	}
	s := &Session{
		mrEng:  mrEngine,
		cat:    cat,
		eng:    core.New(mrEngine, cat, engOpts),
		cache:  cache,
		rcache: rcache,
		adm: newAdmitter(admitConfig{
			budget:      opts.AdmissionBudget,
			maxConc:     opts.MaxConcurrent,
			depth:       opts.QueueDepth,
			weights:     opts.TenantWeights,
			agingPasses: opts.AgingPasses,
		}, reg),
		opts: opts,
	}
	// A killed node takes its memory reservations with it; drop its cached
	// tables immediately so warm probes of later queries don't touch tables
	// whose reservations were freed.
	s.unwatch = mrEngine.Cluster().OnDeath(func(n *cluster.Node) {
		cache.dropNode(n.ID())
	})
	if opts.ProfileDepth >= 0 {
		// Profiling needs the span stream: attach a per-trace collector,
		// creating the tracer when the owner didn't supply one.
		if mrEngine.Tracer() == nil {
			mrEngine.SetTracer(obs.NewTracer())
		}
		s.collector = obs.NewTraceCollector(0, 0)
		mrEngine.Tracer().AddSink(s.collector)
		s.recorder = obs.NewFlightRecorder(opts.ProfileDepth)
	}
	return s
}

// Metrics returns the registry the session's accounting lands in.
func (s *Session) Metrics() *obs.Registry { return s.mrEng.Metrics() }

// Profiles returns the flight recorder of recent query profiles, or nil
// when profiling is disabled (Options.ProfileDepth < 0).
func (s *Session) Profiles() *obs.FlightRecorder { return s.recorder }

// QueryClass buckets a query name into an SLO class: the SSB flights map to
// "flight-1" … "flight-4" ("Q3.4" → "flight-3"), anything else is "adhoc".
// Per-class latency histograms and shed/error counters land in the registry
// under "serve.slo.<class>.*".
func QueryClass(name string) string {
	if len(name) >= 2 && name[0] == 'Q' && name[1] >= '1' && name[1] <= '9' {
		return "flight-" + name[1:2]
	}
	return "adhoc"
}

// slo records one query outcome in the per-class SLO accounting.
func (s *Session) slo(class, outcome string, latency time.Duration) {
	m := s.Metrics()
	if m == nil {
		return
	}
	prefix := "serve.slo." + class + "."
	m.Counter(prefix + "queries").Inc()
	switch outcome {
	case "ok":
		m.Histogram(prefix + "latency_ns").ObserveDuration(latency)
	case "shed":
		m.Counter(prefix + "shed").Inc()
	default:
		m.Counter(prefix + "errors").Inc()
	}
}

// Engine exposes the session's core engine (e.g. for catalog access).
func (s *Session) Engine() *core.Engine { return s.eng }

// Query runs one bound star plan through the result cache, admission
// control and the shared table cache. It blocks while queued; ctx cancels
// both the wait and, once running, the query itself. ctx also carries the
// tenant identity (WithTenant) the admission controller fair-shares on.
// Each call is one trace: the session emits the root "query" span, every
// job/task/read span the query causes parents into it via the context, and
// the assembled profile lands in the flight recorder. The plan is lowered
// once (core.StarPlan): a malformed or snowflake plan fails here, before it
// touches the caches or admission, and its shape feeds the cache key, the
// admission estimate, the result ordering and the run.
func (s *Session) Query(ctx context.Context, l *plan.Logical) (*results.ResultSet, *core.Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, nil, ErrClosed
	}
	s.wg.Add(1)
	s.mu.Unlock()
	defer s.wg.Done()

	p, err := core.StarPlan(l)
	if err != nil {
		name := ""
		if l != nil {
			name = l.Name
		}
		s.slo(QueryClass(name), "error", 0)
		return nil, nil, fmt.Errorf("serve: %w", err)
	}
	sh := p.Shape
	name := sh.Name
	class := QueryClass(name)
	tenant := TenantFrom(ctx)
	qstart := time.Now()
	var sc obs.SpanContext
	if s.mrEng.Tracer().Enabled() {
		sc = obs.NewTrace()
		ctx = obs.ContextWith(ctx, sc)
	}

	// Result cache first: a hit (exact or by subsumption) answers without
	// touching admission or MapReduce at all. A miss leaves us owning the
	// singleflight placeholder — concurrent equal queries block on it, so
	// the publish below (or the abort on any failure path) must always run.
	var cachePublish func(*results.ResultSet)
	if s.rcache != nil {
		key := plan.KeyOf(sh)
		crs, kind, publish, lerr := s.rcache.lookup(ctx, &key, key.Fingerprint())
		if lerr != nil {
			s.slo(class, "error", 0)
			s.finishTrace(sc, name, qstart, lerr, nil)
			return nil, nil, fmt.Errorf("serve: %s: %w", name, lerr)
		}
		if kind != "miss" {
			if err := sortResult(crs, sh); err != nil {
				s.slo(class, "error", 0)
				s.finishTrace(sc, name, qstart, err, nil)
				return nil, nil, fmt.Errorf("serve: %s: %w", name, err)
			}
			rep := &core.Report{
				Query: name,
				// No job ran; synthesize empty counters so report
				// consumers need no cache-hit special case.
				Job:   &mr.JobResult{Counters: mr.NewCounters()},
				Total: time.Since(qstart),
			}
			s.slo(class, "ok", time.Since(qstart))
			s.finishTrace(sc, name, qstart, nil, rep)
			return crs, rep, nil
		}
		cachePublish = publish
	}
	defer func() {
		if cachePublish != nil {
			cachePublish(nil) // not cached: unblock singleflight waiters
		}
	}()

	cost, err := s.admissionCost(sh)
	if err != nil {
		s.slo(class, "error", 0)
		s.finishTrace(sc, name, qstart, err, nil)
		return nil, nil, err
	}

	waitStart := time.Now()
	release, err := s.adm.admit(ctx, tenant, cost)
	if err != nil {
		outcome := "error"
		if errors.Is(err, ErrQueueFull) {
			outcome = "shed"
		}
		s.slo(class, outcome, 0)
		s.finishTrace(sc, name, qstart, err, nil)
		return nil, nil, fmt.Errorf("serve: %s: %w", name, err)
	}
	defer release()
	s.observeQueueWait(sc, name, waitStart)

	rs, rep, err := s.eng.RunPlan(ctx, p)
	if err == nil {
		if cachePublish != nil {
			cachePublish(rs)
			cachePublish = nil
		}
		s.slo(class, "ok", time.Since(qstart))
	} else {
		s.slo(class, "error", 0)
	}
	s.finishTrace(sc, name, qstart, err, rep)
	return rs, rep, err
}

// sortResult applies the shape's effective ORDER BY to a cached result
// (cached rows are re-sorted per query; ordering is not part of the cache
// identity).
func sortResult(rs *results.ResultSet, sh *plan.Shape) error {
	keys := sh.Orders()
	orders := make([]results.Order, len(keys))
	for i, o := range keys {
		orders[i] = results.Order{Col: o.Col, Desc: o.Desc}
	}
	return rs.Sort(orders)
}

// InvalidateTable drops every cached result whose plan read the named table
// (fact or dimension); call it after rolling new data into the table so
// stale sums never serve. Returns the number of results dropped.
//
// RollIn calls this as part of its fan-out; use it directly only when data
// changed outside the session (an external writer appended partitions).
func (s *Session) InvalidateTable(table string) int {
	if s.rcache == nil {
		return 0
	}
	return s.rcache.invalidateTable(table)
}

// RollIn appends a batch of rows to the named table — the fact table or a
// dimension — and is the single notification path that keeps every piece
// of derived state coherent with the new data:
//
//	fact:      rows stage into fresh CIF partitions and publish in one
//	           atomic swap (a query snapshots the partition list at plan
//	           time, so it computes entirely over the pre- or post-batch
//	           table, never a mix), then cached results for the table drop;
//	dimension: rows append to the master row table (atomic rename publish),
//	           then node-local dimension copies drop, the engine's memo
//	           for the table (encoded copy, statistics, FK-range hints,
//	           semi-join blooms) evicts, the serve table cache bumps the
//	           dimension's generation, and cached results drop.
//
// The result cache is invalidated after the data publishes: invalidating
// first would let a query that computed pre-batch rows cache them as
// post-batch; this order instead unmaps any in-flight build, whose publish
// then refuses the stale rows. A nil error means the whole batch is
// visible; on error nothing became visible. Roll-ins serialize with each
// other and with compaction/retention, not with queries.
func (s *Session) RollIn(table string, rows func(emit func(records.Record) error) error) (int64, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, ErrClosed
	}
	s.wg.Add(1)
	s.mu.Unlock()
	defer s.wg.Done()

	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if table == s.cat.FactName {
		return s.rollInFact(table, rows)
	}
	return s.rollInDim(table, rows)
}

func (s *Session) rollInFact(table string, rows func(emit func(records.Record) error) error) (int64, error) {
	n, parts, err := s.eng.Snapshots().RollIn(s.cat.FactDir, s.opts.IngestPartitionRows, rows)
	if err != nil {
		s.rollInFailures.Add(1)
		s.countIngest("roll_in_failures")
		return 0, fmt.Errorf("serve: roll-in %s: %w", table, err)
	}
	s.partsPublished.Add(int64(len(parts)))
	s.finishRollIn(table, n)
	return n, nil
}

func (s *Session) rollInDim(table string, rows func(emit func(records.Record) error) error) (int64, error) {
	dir, err := s.cat.DimDir(table)
	if err != nil {
		return 0, err
	}
	n, err := colstore.AppendRowTable(s.mrEng.FS(), dir, rows)
	if err != nil {
		s.rollInFailures.Add(1)
		s.countIngest("roll_in_failures")
		return 0, fmt.Errorf("serve: roll-in %s: %w", table, err)
	}
	// Invalidation fan-out, innermost state first: node-local dimension
	// copies (the hash-table build source), the engine's derived scan
	// pushdowns and statistics, the cross-query table cache. All
	// of it is derived purely from the dimension's master copy, so any
	// query interleaving here rebuilds consistently from either side of the
	// append.
	core.DropDimCached(s.mrEng.Cluster(), dir)
	s.eng.InvalidateTable(table)
	s.tableInvalidations.Add(int64(s.cache.invalidateDim(dir, s.mrEng.Cluster().Node)))
	s.finishRollIn(table, n)
	return n, nil
}

// finishRollIn is the tail shared by both roll-in paths: result-cache
// invalidation (after publish — see RollIn) and accounting.
func (s *Session) finishRollIn(table string, n int64) {
	if s.rcache != nil {
		s.rcache.invalidateTable(table)
	}
	s.rollIns.Add(1)
	s.rollInRows.Add(n)
	s.countIngest("roll_ins")
	if m := s.Metrics(); m != nil {
		m.Counter("serve.ingest.rows").Add(n)
	}
}

func (s *Session) countIngest(name string) {
	if m := s.Metrics(); m != nil {
		m.Counter("serve.ingest." + name).Inc()
	}
}

// CompactFact runs one compaction pass over the fact table: small roll-in
// partitions rewrite into full-size re-clustered ones with fresh zone
// maps, exchanged in one atomic swap (see colstore.Compact). The row
// multiset is unchanged, so no cached state needs invalidating — a racing
// query answers identically from either side of the swap.
func (s *Session) CompactFact(opts colstore.CompactOptions) (*colstore.CompactResult, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	s.wg.Add(1)
	s.mu.Unlock()
	defer s.wg.Done()

	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	res, err := colstore.Compact(s.eng.Snapshots(), s.cat.FactDir, opts)
	if err != nil {
		s.countIngest("compaction_failures")
		return nil, fmt.Errorf("serve: compact %s: %w", s.cat.FactName, err)
	}
	if len(res.Retired) > 0 {
		s.compactions.Add(1)
		s.compactedRows.Add(res.Rows)
		s.partsPublished.Add(int64(len(res.Published)))
		s.partsRetired.Add(int64(len(res.Retired)))
		s.countIngest("compactions")
	}
	return res, nil
}

// RetainFact applies date-range retention to the fact table: partitions
// whose zone maps prove every value of col is below cutoff retire in one
// atomic swap; partitions straddling the cutoff stay (retention never
// drops a row it cannot prove expired). Dropping rows changes answers, so
// cached results for the fact table are invalidated. Returns the retired
// partitions.
func (s *Session) RetainFact(col string, cutoff int64) ([]string, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	s.wg.Add(1)
	s.mu.Unlock()
	defer s.wg.Done()

	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	retired, err := colstore.ExpireBefore(s.eng.Snapshots(), s.cat.FactDir, col, cutoff)
	if err != nil {
		return nil, fmt.Errorf("serve: retention %s: %w", s.cat.FactName, err)
	}
	if len(retired) > 0 {
		s.partsRetired.Add(int64(len(retired)))
		s.countIngest("retentions")
		if s.rcache != nil {
			s.rcache.invalidateTable(s.cat.FactName)
		}
	}
	return retired, nil
}

// StartCompactor runs CompactFact every interval until the returned stop
// function is called or the session closes. Pass errors surface on the
// "serve.ingest.compaction_failures" counter; one background compactor per
// session (a second call replaces the first).
func (s *Session) StartCompactor(interval time.Duration, opts colstore.CompactOptions) (stop func()) {
	quit := make(chan struct{})
	var once sync.Once
	stop = func() { once.Do(func() { close(quit) }) }

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		stop()
		return stop
	}
	if prev := s.stopCompact; prev != nil {
		prev()
	}
	s.stopCompact = stop
	s.wg.Add(1)
	s.mu.Unlock()

	go func() {
		defer s.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				// Close sets closed before signalling quit, so a tick racing
				// shutdown gets ErrClosed here rather than compacting into a
				// draining session.
				s.CompactFact(opts)
			}
		}
	}()
	return stop
}

// syncGauges refreshes scrape-time gauges for sources without inline update
// hooks (the table cache) and republishes the admission and result-cache
// levels so every scrape sees the full gauge set.
func (s *Session) syncGauges() {
	if m := s.Metrics(); m != nil {
		m.Gauge("serve.cache.resident_bytes").Set(s.cache.residentBytes())
	}
	s.adm.syncGauges()
	if s.rcache != nil {
		s.rcache.updateGauges()
	}
}

// finishTrace emits the root query span, claims the trace's spans from the
// collector, and records the assembled profile in the flight recorder. A
// no-op for untraced queries.
func (s *Session) finishTrace(sc obs.SpanContext, name string, start time.Time, qerr error, rep *core.Report) {
	if !sc.Valid() {
		return
	}
	if tr := s.mrEng.Tracer(); tr.Enabled() {
		status := "ok"
		if qerr != nil {
			status = "error"
		}
		root := obs.Span{Name: obs.PhaseQuery, Start: start, End: time.Now(),
			Attrs: obs.Attrs("query", name, "status", status)}
		sc.Fill(&root, "")
		tr.Emit(root)
	}
	if s.collector == nil {
		return
	}
	spans, dropped := s.collector.Take(sc.Trace)
	var counters map[string]int64
	if rep != nil && rep.Job != nil && rep.Job.Counters != nil {
		counters = rep.Job.Counters.Snapshot()
	}
	p, err := obs.BuildProfile(spans, obs.ProfileOptions{
		Trace:    sc.Trace,
		Counters: counters,
		Dropped:  dropped,
	})
	if err != nil {
		return
	}
	s.recorder.Record(p)
	if m := s.Metrics(); m != nil && p.Orphans > 0 {
		m.Counter("serve.profile.orphan_spans").Add(int64(p.Orphans))
	}
}

// observeQueueWait surfaces the admission wait as a span (parented under
// the query's root) and a histogram sample on the engine's tracer/registry.
func (s *Session) observeQueueWait(sc obs.SpanContext, name string, start time.Time) {
	end := time.Now()
	if tr := s.mrEng.Tracer(); tr.Enabled() {
		span := obs.Span{
			Name:  obs.PhaseAdmissionWait,
			Start: start,
			End:   end,
			Attrs: obs.Attrs("query", name),
		}
		sc.NewChild().Fill(&span, sc.Span)
		tr.Emit(span)
	}
	if m := s.mrEng.Metrics(); m != nil {
		m.Histogram("serve.admission_wait_ns").ObserveDuration(end.Sub(start))
	}
}

// admissionCost estimates the per-node bytes admitting the query adds: the
// exact build size of each dimension table not already resident on every
// live node (cached tables are free — that is the point of the cache),
// plus the configured task working memory. Estimates come from
// Engine.DimStats, whose HashBytes mirrors the build layout byte-for-byte
// and which the engine memoizes per dimension generation.
func (s *Session) admissionCost(sh *plan.Shape) (int64, error) {
	per, err := s.eng.DimStats(sh.Joins)
	if err != nil {
		return 0, fmt.Errorf("serve: estimating %s tables: %w", sh.Name, err)
	}
	nodeIDs := s.aliveIDs()
	var cost int64
	for i := range sh.Joins {
		dir, err := s.cat.DimDir(sh.Joins[i].Table)
		if err != nil {
			return 0, err
		}
		if !s.cache.residentEverywhere(s.cache.keyFor(dir, &sh.Joins[i]), nodeIDs) {
			cost += per[i].HashBytes
		}
	}
	return cost + s.opts.TaskMemory, nil
}

func (s *Session) aliveIDs() []string {
	nodes := s.mrEng.Cluster().Alive()
	ids := make([]string, len(nodes))
	for i, n := range nodes {
		ids[i] = n.ID()
	}
	return ids
}

// Stats snapshots the serving counters.
func (s *Session) Stats() Stats {
	running, queued, admitted, rejected, peak := s.adm.snapshot()
	st := Stats{
		Hits:           s.cache.hits.Load(),
		Misses:         s.cache.misses.Load(),
		Builds:         s.cache.builds.Load(),
		Evictions:      s.cache.evictions.Load(),
		ResidentBytes:  s.cache.residentBytes(),
		Admitted:       admitted,
		Rejected:       rejected,
		Running:        running,
		Queued:         queued,
		PeakConcurrent: peak,
	}
	if s.rcache != nil {
		st.ResultHits = s.rcache.hits.Load()
		st.ResultSubsumedHits = s.rcache.subsumedHits.Load()
		st.ResultMisses = s.rcache.misses.Load()
		st.ResultEvictions = s.rcache.evictions.Load()
		st.ResultInvalidations = s.rcache.invalidations.Load()
		st.ResultBytes = s.rcache.residentBytes()
	}
	st.RollIns = s.rollIns.Load()
	st.RollInRows = s.rollInRows.Load()
	st.RollInFailures = s.rollInFailures.Load()
	st.Compactions = s.compactions.Load()
	st.CompactedRows = s.compactedRows.Load()
	st.PartitionsPublished = s.partsPublished.Load()
	st.PartitionsRetired = s.partsRetired.Load()
	st.TableInvalidations = s.tableInvalidations.Load()
	return st
}

// Close drains in-flight queries, evicts every cached table (returning its
// node memory reservation), drops every cached result, and fails all future
// Query calls with ErrClosed. Safe to call more than once.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	stopCompact := s.stopCompact
	s.mu.Unlock()
	if stopCompact != nil {
		// Stop the background compactor before draining: its goroutine is
		// counted in wg, so waiting while it still ticks would deadlock.
		stopCompact()
	}
	s.wg.Wait()
	if s.unwatch != nil {
		s.unwatch()
	}
	cl := s.mrEng.Cluster()
	s.cache.evictAll(cl.Node)
	if s.rcache != nil {
		s.rcache.evictAll()
	}
	return nil
}
