package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Workload sizes. The SSB data is the paper's star schema at dimension
// scale 1; the snowflake keeps the shape of seed 42 (two to three chains,
// one at least two deep) so that every seed runs the same eight queries
// over different rows.
const (
	ssbFactRows    = 480_000
	serveFactRows  = 480_000
	ingestFactRows = 240_000
	snowFactRows   = 50_000
	snowShapeSeed  = 42
	snowQueries    = 8

	// serve-mix: one open-loop generator at a fixed offered rate, about
	// a sixth of the session's measured capacity. README.md gives the
	// measurement and why the mix differs from internal/bench/serve.go.
	maxConcurrent    = 2
	arrivalsPerSec   = 40
	reportingShare   = 0.06
	interactiveUsers = 2000
	reportingUsers   = 4
	interactiveSLO   = 250 * time.Millisecond

	// ingest-live: the writer's fixed total (batchesPerSecond batches per
	// second of the window; about a second's work each on two cores), the
	// reads made per batch, the writer's cadence, and the feed the rows
	// come from (a 10 s window rolls all of it).
	feedRows          = 400_000
	batchRows         = 2_000
	batchesPerSecond  = 20
	readsPerBatch     = 2
	compactEvery      = 8
	supplierEvery     = 20
	suppliersPerRoll  = 4
	ingestPartRows    = 1_024
	compactTargetRows = 16_384
)

// window is what one measured stretch of a workload produced.
type window struct {
	elapsed           time.Duration
	lat               []time.Duration
	class             map[string][]time.Duration
	attempted, failed int64
	sum               counts
	kinds             map[string]int
	passes            int
	late              []time.Duration
	sloMet, sloTotal  int64
	rollins           []time.Duration
	acked             int64
	writeTime         time.Duration
	mu                sync.Mutex
}

func newWindow() *window {
	return &window{class: map[string][]time.Duration{}, kinds: map[string]int{}, sum: counts{}}
}

func (w *window) done(class string, lat time.Duration, c counts, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.attempted++
	if err != nil {
		w.failed++
		if class == "interactive" {
			w.sloTotal++
		}
		return
	}
	w.lat = append(w.lat, lat)
	if class != "" {
		w.class[class] = append(w.class[class], lat)
	}
	if class == "interactive" {
		w.sloTotal++
		if lat <= interactiveSLO {
			w.sloMet++
		}
	}
	if c != nil {
		w.sum.add(c)
	}
}

// op counts one write-path operation.
func (w *window) op(err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.attempted++
	if err != nil {
		w.failed++
	}
}

// failure reports a window in which any operation failed; warm-ups
// require none to.
func (w *window) failure() error {
	if w.failed > 0 {
		return fmt.Errorf("%d of %d operations failed", w.failed, w.attempted)
	}
	return nil
}

func (w *window) qps() float64 { return float64(len(w.lat)) / w.elapsed.Seconds() }

// extent says how long a window runs: until a deadline (timed runs) or for
// a fixed amount of work (the traced halves, whose counts must repeat).
type extent struct {
	length time.Duration
	passes int // > 0: whole passes over the query set
	phase  int // which traced half (0 or 1); -1 for a timed run
	seed   uint64
}

type workload interface {
	setup(seed uint64) error
	warm() error
	run(rec *recorder, sp extent) *window
	// check holds the answers the last window produced to the reference
	// executor and returns how many it checked; a mismatch is an error.
	check() (int, error)
	sys() *system
	// session is the serving session, nil on the bare-engine workloads.
	session() *session
	sizes() string
	close()
}

// tracePasses is the fixed work of each traced half on the closed-loop
// workloads.
var tracePasses = map[string]int{"ssb-batch": 2, "snow-multijoin": 1}

func newWorkload(name string) (workload, error) {
	switch name {
	case "ssb-batch":
		return &ssbBatch{}, nil
	case "serve-mix":
		return &serveMix{}, nil
	case "ingest-live":
		return &ingestLive{}, nil
	case "snow-multijoin":
		return &snowMulti{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// closedLoop runs one client over the query set of size n, one request
// after another, in whole passes: until the pass in progress at the
// window's deadline ends, or for the window's fixed number of passes.
// Whole passes keep the query mix, and so the latency percentiles, the
// same from run to run.
func closedLoop(sp extent, n int, w *window, do func(i int)) {
	start := time.Now()
	deadline := start.Add(sp.length)
	for {
		if sp.passes > 0 && w.passes >= sp.passes || sp.passes == 0 && !time.Now().Before(deadline) {
			break
		}
		for i := 0; i < n; i++ {
			do(i)
		}
		w.passes++
	}
	w.elapsed = time.Since(start)
}

// parse is sql.Parse inside the request's span of that name.
func parse(ctx context.Context, req *request, q sqlQuery, cat *catalog) (l *logical, err error) {
	err = req.call(ctx, "sql.Parse", func(context.Context) (err error) {
		l, err = parseSQL(q, cat)
		return err
	})
	return l, err
}

// served is the serving path: parse, then Session.Query.
func served(ctx context.Context, req *request, s *session, tenant string, q sqlQuery, cat *catalog) (*logical, *resultSet, counts, error) {
	l, err := parse(ctx, req, q, cat)
	if err != nil {
		return nil, nil, nil, err
	}
	var rs *resultSet
	var c counts
	err = req.call(ctx, "Session.Query", func(ctx context.Context) (err error) {
		rs, c, err = s.query(ctx, tenant, l)
		return err
	})
	return l, rs, c, err
}

// plannedRun is the chooser path: statistics, cost-based choice, run.
func plannedRun(ctx context.Context, req *request, e *engine, l *logical) (*resultSet, counts, string, error) {
	var st *planStats
	var p *physical
	var rs *resultSet
	var c counts
	if err := req.call(ctx, "Engine.PlanStats", func(context.Context) (err error) {
		st, err = e.planStats(l)
		return err
	}); err != nil {
		return nil, nil, "", err
	}
	if err := req.call(ctx, "plan.Choose", func(context.Context) (err error) {
		p, err = choose(l, st)
		return err
	}); err != nil {
		return nil, nil, "", err
	}
	if err := req.call(ctx, "Engine.RunPlan", func(ctx context.Context) (err error) {
		rs, c, err = e.runPlan(ctx, p)
		return err
	}); err != nil {
		return nil, nil, "", err
	}
	return rs, c, kindOf(p), nil
}

// answers keeps the latest answer to each distinct query for the check;
// on the serving workloads a repeated query's latest answer is usually
// the one the result cache served.
type answers struct {
	mu     sync.Mutex
	byQ    map[string]*resultSet
	plan   map[string]*logical
	served map[string]int
}

func (a *answers) keep(key string, l *logical, rs *resultSet) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.byQ == nil {
		a.byQ, a.plan, a.served = map[string]*resultSet{}, map[string]*logical{}, map[string]int{}
	}
	a.byQ[key], a.plan[key] = rs, l
	a.served[key]++
}

// checkAll compares every kept answer with the reference over src.
func (a *answers) checkAll(src rowSource) (int, error) {
	keys := make([]string, 0, len(a.byQ))
	for k := range a.byQ {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return a.check(keys, src)
}

// checkSample checks the most-served answers (repeats, so served from
// the result cache) and a seeded draw of the other distinct queries.
func (a *answers) checkSample(seed uint64, top, others int, src rowSource) (int, error) {
	keys := make([]string, 0, len(a.byQ))
	for k := range a.byQ {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sort.SliceStable(keys, func(i, j int) bool { return a.served[keys[i]] > a.served[keys[j]] })
	if top > len(keys) {
		top = len(keys)
	}
	rest := keys[top:]
	rand.New(rand.NewSource(int64(seed))).Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	if others > len(rest) {
		others = len(rest)
	}
	return a.check(keys[:top+others], src)
}

func (a *answers) check(keys []string, src rowSource) (int, error) {
	for _, k := range keys {
		want, err := reference(a.plan[k], src)
		if err != nil {
			return 0, fmt.Errorf("reference %s: %w", a.plan[k].Name, err)
		}
		if err := sameAnswer(a.byQ[k], want); err != nil {
			return 0, fmt.Errorf("%s: %w", a.plan[k].Name, err)
		}
	}
	return len(keys), nil
}

// ---- ssb-batch: the 13 SSB queries, one client, bare engine.

type ssbBatch struct {
	s   *system
	d   *ssbData
	e   *engine
	ans answers
}

func (b *ssbBatch) setup(seed uint64) (err error) {
	b.s = newSystem(seed)
	if b.d, err = loadSSB(b.s, ssbFactRows, 1, seed); err != nil {
		return err
	}
	b.e = newEngine(b.s)
	b.ans = answers{}
	return nil
}

func (b *ssbBatch) one(rec *recorder, q sqlQuery, w *window) {
	req := rec.begin(q.name)
	defer req.end()
	ctx := context.Background()
	start := time.Now()
	l, err := parse(ctx, req, q, b.s.cat)
	var rs *resultSet
	var c counts
	var kind string
	if err == nil {
		rs, c, kind, err = plannedRun(ctx, req, b.e, l)
	}
	w.done("", time.Since(start), c, err)
	if err == nil {
		w.kinds[kind]++
		b.ans.keep(q.name, l, rs)
	}
}

func (b *ssbBatch) warm() error {
	w := newWindow()
	for _, q := range ssbQueries {
		b.one(nil, q, w)
	}
	return w.failure()
}

func (b *ssbBatch) run(rec *recorder, sp extent) *window {
	w := newWindow()
	closedLoop(sp, len(ssbQueries), w, func(i int) { b.one(rec, ssbQueries[i], w) })
	return w
}

func (b *ssbBatch) check() (int, error) { return b.ans.checkAll(b.d.each(0, 0)) }
func (b *ssbBatch) sys() *system        { return b.s }
func (b *ssbBatch) sizes() string       { return b.d.describe() }
func (b *ssbBatch) session() *session   { return nil }
func (b *ssbBatch) close()              {}

// ---- snow-multijoin: generated snowflake queries through the chooser.

type snowMulti struct {
	s   *system
	d   *snowData
	qs  []*logical
	e   *engine
	ans answers
}

func (m *snowMulti) setup(seed uint64) (err error) {
	m.s = newSystem(seed)
	if m.d, m.qs, err = loadSnow(m.s, snowFactRows, snowShapeSeed, seed); err != nil {
		return err
	}
	m.e = newEngine(m.s)
	m.ans = answers{}
	return nil
}

func (m *snowMulti) one(rec *recorder, l *logical, w *window) {
	req := rec.begin(l.Name)
	defer req.end()
	start := time.Now()
	rs, c, kind, err := plannedRun(context.Background(), req, m.e, l)
	w.done("", time.Since(start), c, err)
	if err == nil {
		w.kinds[kind]++
		m.ans.keep(l.Name, l, rs)
	}
}

func (m *snowMulti) warm() error {
	w := newWindow()
	for _, l := range m.qs {
		m.one(nil, l, w)
	}
	return w.failure()
}

func (m *snowMulti) run(rec *recorder, sp extent) *window {
	w := newWindow()
	closedLoop(sp, len(m.qs), w, func(i int) { m.one(rec, m.qs[i], w) })
	return w
}

func (m *snowMulti) check() (int, error) { return m.ans.checkAll(m.d.each) }
func (m *snowMulti) sys() *system        { return m.s }
func (m *snowMulti) sizes() string       { return m.d.describe() }
func (m *snowMulti) session() *session   { return nil }
func (m *snowMulti) close()              {}

// ---- serve-mix: open-loop dashboards and reporting bursts through a
// serving session.

type serveMix struct {
	seed uint64
	s    *system
	d    *ssbData
	sess *session
	ans  answers
}

func (m *serveMix) setup(seed uint64) (err error) {
	m.seed = seed
	m.s = newSystem(seed)
	if m.d, err = loadSSB(m.s, serveFactRows, 1, seed); err != nil {
		return err
	}
	m.sess = newSession(m.s, maxConcurrent, 0)
	m.ans = answers{}
	return nil
}

// warmBursts is how many reporting bursts the warm-up asks; windows ask
// the bursts after them.
const warmBursts = 5

// warm serves every dashboard variant and the first reporting bursts, so
// the window starts with the dashboards' working set in the result cache
// and the reporting dimension tables in the table cache.
func (m *serveMix) warm() error {
	w := newWindow()
	var qs []sqlQuery
	for v := 0; v < dashVariants; v++ {
		qs = append(qs, dashboard(v))
	}
	for i := 0; i < warmBursts; i++ {
		qs = append(qs, reportBurst(i)...)
	}
	for _, q := range qs {
		m.one(nil, "warm", "", q, time.Now(), w)
	}
	return w.failure()
}

func (m *serveMix) one(rec *recorder, tenant, class string, q sqlQuery, due time.Time, w *window) {
	req := rec.begin(q.name)
	defer req.end()
	l, rs, c, err := served(context.Background(), req, m.sess, tenant, q, m.s.cat)
	w.done(class, time.Since(due), c, err)
	if err == nil {
		m.ans.keep(q.text, l, rs)
	}
}

type arrival struct {
	at     time.Duration
	tenant string
	class  string
	qs     []sqlQuery
}

// schedule draws the window's arrivals. Dashboards are a Poisson process
// at their share of the offered rate, conditioned on its count (so every
// seed offers the same load), with variants following a Zipf law over
// the 100 variants. Reporting bursts come one per equal slot of the
// window, at a seeded offset within the slot, so that how many bursts
// overlap does not depend on the seed. The window's bursts are reportBurst
// first, first+1, ... whatever the seed.
func schedule(seed uint64, length time.Duration, first int) []arrival {
	rng := rand.New(rand.NewSource(int64(seed)))
	zipf := rand.NewZipf(rng, 1.2, 1, dashVariants-1)
	total := arrivalsPerSec * length.Seconds()
	bursts := burstCount(length)
	var out []arrival
	for i := 0; i < int(math.Round(total))-bursts; i++ {
		out = append(out, arrival{
			at:     time.Duration(rng.Float64() * float64(length)),
			tenant: fmt.Sprintf("dash-%d", rng.Intn(interactiveUsers)),
			class:  "interactive",
			qs:     []sqlQuery{dashboard(int(zipf.Uint64()))},
		})
	}
	slot := float64(length) / float64(bursts)
	for i := 0; i < bursts; i++ {
		out = append(out, arrival{
			at:     time.Duration((float64(i) + rng.Float64()) * slot),
			tenant: fmt.Sprintf("report-%d", rng.Intn(reportingUsers)),
			class:  "reporting",
			qs:     reportBurst(first + i),
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out
}

func burstCount(length time.Duration) int {
	return int(math.Round(arrivalsPerSec * length.Seconds() * reportingShare))
}

func (m *serveMix) run(rec *recorder, sp extent) *window {
	w := newWindow()
	length := sp.length
	seed := sp.seed
	if sp.phase >= 0 {
		seed = seed*2 + uint64(sp.phase)
	}
	// No reporting query of a window was asked before it: the bursts come
	// after the warm-up's, and the traced run's second half after the
	// first half's. Reporting therefore misses the result cache.
	first := warmBursts
	if sp.phase == 1 {
		first += burstCount(length)
	}
	arrivals := schedule(seed, length, first)
	var wg sync.WaitGroup
	start := time.Now()
	for _, a := range arrivals {
		due := start.Add(a.at)
		time.Sleep(time.Until(due))
		late := time.Since(due)
		w.mu.Lock()
		w.late = append(w.late, late)
		w.mu.Unlock()
		for _, q := range a.qs {
			wg.Add(1)
			go func(a arrival, q sqlQuery) {
				defer wg.Done()
				m.one(rec, a.tenant, a.class, q, due, w)
			}(a, q)
		}
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	return w
}

// check holds a sample of the distinct SQL texts served in the window to
// the reference: the two served most often, whose latest answers came
// from the result cache, and two others drawn by the seed.
func (m *serveMix) check() (int, error) {
	return m.ans.checkSample(m.seed, 2, 2, m.d.each(0, 0))
}
func (m *serveMix) sys() *system      { return m.s }
func (m *serveMix) sizes() string     { return m.d.describe() }
func (m *serveMix) session() *session { return m.sess }
func (m *serveMix) close()            { m.sess.close() }

// ---- ingest-live: one writer rolling fact batches beside one reader.

type ingestLive struct {
	s         *system
	d         *ssbData
	sess      *session
	nextFact  int64 // fact rows acknowledged since set-up
	nextSupp  int64 // supplier rows acknowledged since set-up
	batchesIn int
	reads     int // reader queries issued since set-up
}

func (g *ingestLive) setup(seed uint64) (err error) {
	g.s = newSystem(seed)
	if g.d, err = loadSSB(g.s, ingestFactRows, 1, seed); err != nil {
		return err
	}
	g.sess = newSession(g.s, maxConcurrent, ingestPartRows)
	g.nextFact, g.nextSupp, g.batchesIn, g.reads = 0, 0, 0, 0
	return nil
}

// read issues the reader's next query.
func (g *ingestLive) read(rec *recorder, w *window) {
	q := ingestRead(g.reads)
	g.reads++
	req := rec.begin(q.name)
	defer req.end()
	start := time.Now()
	_, _, c, err := served(context.Background(), req, g.sess, "reader", q, g.s.cat)
	w.done("", time.Since(start), c, err)
}

func (g *ingestLive) warm() error {
	w := newWindow()
	for i := 0; i < 2*len(dashYears); i++ {
		g.read(nil, w)
	}
	return w.failure()
}

// The writer and the reader run side by side in a fixed ratio: during
// batch b the reader makes reads readsPerBatch*b onwards, and the writer
// starts batch b+2 only once readsPerBatch*(b+1) reads are done.
// Neither side's share of the processors then depends on how the
// scheduler or a slow stretch of the host favours it. A writer paced by
// the clock would take a fixed share and leave the reader to absorb every
// slowdown, about twice over.

// write rolls the window's fixed total of batches back to back, each
// started only once the reader is within one round of it, with a
// compaction every compactEvery batches and a few new supplier rows every
// supplierEvery batches. It announces each batch on started and waits for
// the reader's completions on readDone.
func (g *ingestLive) write(rec *recorder, batches int, started chan<- struct{}, readDone <-chan struct{}, w *window) {
	start := time.Now()
	for b := 0; b < batches; b++ {
		if b >= 2 {
			for i := 0; i < readsPerBatch; i++ {
				<-readDone
			}
		}
		started <- struct{}{}
		lo := g.nextFact
		var n int64
		d, err := rec.timed("Session.RollIn", func() (err error) {
			n, err = g.sess.rollInFact(g.d, lo, lo+batchRows)
			return err
		})
		if err == nil && n != batchRows {
			err = fmt.Errorf("roll-in acknowledged %d of %d rows", n, batchRows)
		}
		w.op(err)
		g.nextFact += n
		if err == nil {
			w.mu.Lock()
			w.rollins = append(w.rollins, d)
			w.acked += n
			w.mu.Unlock()
		}
		g.batchesIn++
		if g.batchesIn%supplierEvery == 0 {
			lo := g.d.gen.SupplierRows() + g.nextSupp
			n, err := g.sess.rollInSuppliers(g.d, lo, lo+suppliersPerRoll)
			w.op(err)
			g.nextSupp += n
		}
		if g.batchesIn%compactEvery == 0 {
			_, err := rec.timed("Session.CompactFact", func() error { return g.sess.compactFact(compactTargetRows) })
			w.op(err)
		}
	}
	w.writeTime = time.Since(start)
}

// run rolls batchesPerSecond batches per second of the window and makes
// readsPerBatch reads per batch, and ends when both sides are done.
func (g *ingestLive) run(rec *recorder, sp extent) *window {
	w := newWindow()
	batches := int(sp.length.Seconds() * batchesPerSecond)
	reads := readsPerBatch * batches
	// Both channels hold every send the window makes, so neither side
	// blocks sending after the other has finished.
	started := make(chan struct{}, batches)
	readDone := make(chan struct{}, reads)
	start := time.Now()
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		g.write(rec, batches, started, readDone, w)
	}()
	for r := 0; r < reads; r++ {
		if r%readsPerBatch == 0 {
			<-started
		}
		g.read(rec, w)
		readDone <- struct{}{}
	}
	<-writerDone
	w.elapsed = time.Since(start)
	return w
}

// check reads the final table state: the committed row count must be the
// loaded rows plus every acknowledged row, and Q3.1, which joins the
// rolled-in suppliers too, must answer like the reference over exactly
// those rows.
func (g *ingestLive) check() (int, error) {
	rows, err := g.s.factRowCount()
	if err != nil {
		return 0, err
	}
	if want := g.d.base + g.nextFact; rows != want {
		return 0, fmt.Errorf("fact table holds %d rows, want %d loaded plus acknowledged", rows, want)
	}
	l, err := parseSQL(ssbQueries[6], g.s.cat)
	if err != nil {
		return 0, err
	}
	rs, _, err := g.sess.query(context.Background(), "check", l)
	if err != nil {
		return 0, err
	}
	want, err := reference(l, g.d.each(g.nextFact, g.nextSupp))
	if err != nil {
		return 0, err
	}
	return 2, sameAnswer(rs, want)
}

func (g *ingestLive) sys() *system      { return g.s }
func (g *ingestLive) sizes() string     { return g.d.describe() }
func (g *ingestLive) session() *session { return g.sess }
func (g *ingestLive) close()            { g.sess.close() }
