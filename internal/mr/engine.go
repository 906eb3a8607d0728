package mr

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"clydesdale/internal/cluster"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/obs"
	"clydesdale/internal/records"
)

// Options tunes engine-level behaviour.
type Options struct {
	// TaskLaunchOverhead is the modeled fixed cost of launching any task
	// (scheduler round trip, process setup). Hadoop's is on the order of
	// seconds; it is what block iteration and multi-splits amortize.
	TaskLaunchOverhead time.Duration
	// JVMStartup is the modeled cost of starting a fresh JVM; avoided for
	// reused JVMs.
	JVMStartup time.Duration
	// MaxTaskAttempts bounds retries per task (Hadoop default 4).
	MaxTaskAttempts int
	// Tracer receives per-attempt sub-phase spans (the job-history
	// timeline). Nil or sink-less disables tracing at ~zero cost.
	Tracer *obs.Tracer
	// Metrics, when non-nil, receives engine-level histograms and counters
	// (task durations, queue waits, shuffle traffic).
	Metrics *obs.Registry
}

// Engine runs MapReduce jobs over a cluster and filesystem.
type Engine struct {
	cluster *cluster.Cluster
	fs      *hdfs.FileSystem
	opts    Options
	jobSeq  atomic.Int64
}

// NewEngine creates an engine. Zero options mean no modeled overheads and
// 4 attempts per task.
func NewEngine(c *cluster.Cluster, fs *hdfs.FileSystem, opts Options) *Engine {
	if opts.MaxTaskAttempts <= 0 {
		opts.MaxTaskAttempts = 4
	}
	return &Engine{cluster: c, fs: fs, opts: opts}
}

// Cluster returns the engine's cluster.
func (e *Engine) Cluster() *cluster.Cluster { return e.cluster }

// FS returns the engine's filesystem.
func (e *Engine) FS() *hdfs.FileSystem { return e.fs }

// Tracer returns the engine's tracer (possibly nil).
func (e *Engine) Tracer() *obs.Tracer { return e.opts.Tracer }

// SetTracer attaches a tracer. Call between jobs, not during one.
func (e *Engine) SetTracer(t *obs.Tracer) { e.opts.Tracer = t }

// Metrics returns the engine's metrics registry (possibly nil).
func (e *Engine) Metrics() *obs.Registry { return e.opts.Metrics }

// SetMetrics attaches a metrics registry. Call between jobs, not during one.
func (e *Engine) SetMetrics(r *obs.Registry) { e.opts.Metrics = r }

// kvEntry is one serialized map-output pair. Both key and value are wire
// bytes: the sort and the grouping compare key bytes directly (the codec is
// deterministic, so equal keys have identical encodings) and the key is
// decoded once per group, not once per comparison. seq preserves emit order
// among equal keys, standing in for a stable sort.
type kvEntry struct {
	key []byte
	val []byte
	seq uint64
}

// kvByKey sorts entries by raw key bytes with emit order breaking ties. The
// byte order differs from records.Record.Compare order (varints are not
// order-preserving), which is fine: reducers only need equal keys adjacent,
// and the driver applies any user-visible ordering itself. The one caveat:
// float keys whose Compare treats distinct bit patterns as equal (NaN, ±0.0)
// encode differently and would land in separate groups.
type kvByKey []kvEntry

func (s kvByKey) Len() int      { return len(s) }
func (s kvByKey) Swap(i, j int) { s[i], s[j] = s[j], s[i] }
func (s kvByKey) Less(i, j int) bool {
	if c := bytes.Compare(s[i].key, s[j].key); c != 0 {
		return c < 0
	}
	return s[i].seq < s[j].seq
}

// mapOutput is the spilled, sorted, combined output of one map task,
// resident on the local disk of the node that ran it.
type mapOutput struct {
	node  string
	parts [][]kvEntry
}

func (mo *mapOutput) partBytes(p int) int64 {
	var n int64
	for _, e := range mo.parts[p] {
		n += int64(len(e.key) + len(e.val))
	}
	return n
}

// ErrCanceled marks a job that was stopped because its submission context
// was canceled or timed out. Errors returned by Submit for such jobs match
// both errors.Is(err, ErrCanceled) and the context's own cause
// (context.Canceled / context.DeadlineExceeded).
var ErrCanceled = errors.New("mr: job canceled")

// jobRun carries the state of one executing job.
type jobRun struct {
	engine   *Engine
	job      *Job
	ctx      context.Context
	jobID    string
	jctx     *JobContext
	counters *Counters
	splits   []InputSplit

	outMu      sync.Mutex
	mapOutputs []*mapOutput

	jvmMu    sync.Mutex
	jvmPools map[string]*jvmPool // node → pool

	reportMu sync.Mutex
	reports  []TaskReport

	taskMem int64 // per-task memory requirement (allowance)
	reuse   bool
	// staged is set when map attempts write through StagedOutput and
	// commit first-wins through mapSched (speculative map-only jobs).
	staged   bool
	mapSched *taskSched
}

// Submit runs the job to completion and returns its result. A canceled or
// expired ctx aborts the job: queued task attempts are never launched,
// running attempts stop at their next poll point, and every byte the job
// reserved on cluster nodes is released before Submit returns. The returned
// error then matches both ErrCanceled and ctx.Err() under errors.Is.
func (e *Engine) Submit(ctx context.Context, job *Job) (res *JobResult, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	jobID := fmt.Sprintf("job-%d", e.jobSeq.Add(1))
	if m := e.opts.Metrics; m != nil {
		m.Counter("mr.jobs_submitted").Inc()
	}
	counters := NewCounters()
	jctx := &JobContext{JobID: jobID, Conf: job.conf(), FS: e.fs, Cluster: e.cluster, Counters: counters, Tracer: e.opts.Tracer}

	// A traced submission (serve/core put a SpanContext in ctx) gets a job
	// span: the root of this job's subtree in the query's trace. Deferred so
	// error paths are covered too, and the job span always outlasts every
	// task span parented under it.
	parentSC, _ := obs.FromContext(ctx)
	jctx.Trace = parentSC.NewChild()
	if tr := e.opts.Tracer; tr.Enabled() && jctx.Trace.Valid() {
		defer func() {
			status := "ok"
			if err != nil {
				status = "error"
			}
			s := obs.Span{Job: jobID, Name: obs.PhaseJob, Start: start, End: time.Now(),
				Attrs: obs.Attrs("status", status)}
			jctx.Trace.Fill(&s, parentSC.Span)
			tr.Emit(s)
		}()
	}

	if job.Input == nil {
		return nil, fmt.Errorf("mr: %s: job has no InputFormat", jobID)
	}
	if job.Output == nil {
		return nil, fmt.Errorf("mr: %s: job has no OutputFormat", jobID)
	}
	if job.NewMapper == nil && job.NewMapRunner == nil {
		return nil, fmt.Errorf("mr: %s: job has neither a Mapper nor a MapRunner", jobID)
	}
	if job.NumReduceTasks > 0 && job.NewReducer == nil {
		return nil, fmt.Errorf("mr: %s: %d reduce tasks but no Reducer", jobID, job.NumReduceTasks)
	}
	if job.Partitioner == nil {
		job.Partitioner = HashPartitioner
	}

	splits, err := job.Input.Splits(jctx)
	if err != nil {
		return nil, fmt.Errorf("mr: %s: computing splits: %w", jobID, err)
	}

	run := &jobRun{
		engine:     e,
		job:        job,
		ctx:        ctx,
		jobID:      jobID,
		jctx:       jctx,
		counters:   counters,
		splits:     splits,
		mapOutputs: make([]*mapOutput, len(splits)),
		jvmPools:   make(map[string]*jvmPool),
		reuse:      job.conf().GetBool(ConfJVMReuse, false),
	}
	run.taskMem = job.conf().GetInt(ConfTaskMemory, 0)
	if run.taskMem <= 0 {
		cfg := e.cluster.Config()
		run.taskMem = cfg.MemoryPerNode / int64(cfg.MapSlots)
	}

	if err := ctx.Err(); err != nil {
		return nil, run.cancelErr(err)
	}
	if err := run.localizeCacheFiles(); err != nil {
		return nil, fmt.Errorf("mr: %s: distributed cache: %w", jobID, err)
	}
	if err := run.mapPhase(); err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, run.cancelErr(cerr)
		}
		return nil, fmt.Errorf("mr: %s: map phase: %w", jobID, err)
	}
	if job.NumReduceTasks > 0 {
		if err := run.reducePhase(); err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return nil, run.cancelErr(cerr)
			}
			return nil, fmt.Errorf("mr: %s: reduce phase: %w", jobID, err)
		}
	}

	return &JobResult{
		JobID:    jobID,
		Counters: counters,
		Tasks:    run.reports,
		Duration: time.Since(start),
	}, nil
}

// cancelErr shapes the error Submit returns for a canceled job so that
// errors.Is matches both ErrCanceled and the context cause.
func (run *jobRun) cancelErr(cause error) error {
	return fmt.Errorf("mr: %s: %w: %w", run.jobID, ErrCanceled, cause)
}

// localizeCacheFiles copies each distributed-cache file to every live node
// exactly once (charging the broadcast traffic), as Hadoop's distributed
// cache does (§6.1).
func (run *jobRun) localizeCacheFiles() error {
	for _, path := range run.job.CacheFiles {
		data, err := run.engine.fs.ReadAll(path, "")
		if err != nil {
			return err
		}
		key := cacheKey(run.jobID, path)
		for _, n := range run.engine.cluster.Alive() {
			if n.HasLocal(key) {
				continue
			}
			if err := n.ChargeNet(int64(len(data))); err != nil {
				return err
			}
			if err := n.ChargeDiskWrite(int64(len(data)), false); err != nil {
				return err
			}
			if err := n.PutLocal(key, data); err != nil {
				return err
			}
			run.counters.Add(CtrCacheCopies, 1)
		}
	}
	return nil
}

// pool returns the JVM pool for a node.
func (run *jobRun) pool(node string) *jvmPool {
	run.jvmMu.Lock()
	defer run.jvmMu.Unlock()
	p, ok := run.jvmPools[node]
	if !ok {
		p = &jvmPool{}
		run.jvmPools[node] = p
	}
	return p
}

// capPerNode computes the concurrent-task cap the capacity scheduler
// enforces from the per-task memory requirement (§5.2: requesting the whole
// node's memory yields one task per node).
func (run *jobRun) capPerNode() int {
	cfg := run.engine.cluster.Config()
	cap := int(cfg.MemoryPerNode / run.taskMem)
	if cap < 1 {
		cap = 1
	}
	if cap > cfg.MapSlots {
		cap = cfg.MapSlots
	}
	return cap
}

func (run *jobRun) addReport(r TaskReport) {
	run.reportMu.Lock()
	run.reports = append(run.reports, r)
	run.reportMu.Unlock()
}

// emitSpanUnder emits one completed span, parented at the given trace
// position, when tracing is enabled; a no-op (one atomic load) otherwise.
// With an invalid parent the span is emitted uncorrelated, preserving the
// untraced JSONL behaviour.
func (run *jobRun) emitSpanUnder(parent obs.SpanContext, name, node, taskID string, start, end time.Time, attrs ...string) {
	tr := run.engine.opts.Tracer
	if !tr.Enabled() {
		return
	}
	s := obs.Span{Job: run.jobID, Name: name, Node: node, TaskID: taskID, Start: start, End: end, Attrs: obs.Attrs(attrs...)}
	parent.NewChild().Fill(&s, parent.Span)
	tr.Emit(s)
}

// emitTaskSpan emits the attempt's "task" span, covering scheduler
// readiness (queue wait) through the attempt's end. It is emitted for every
// attempt — winners, retries and speculative losers alike — so every
// sub-span's parent resolves in the assembled profile.
func (run *jobRun) emitTaskSpan(tsc obs.SpanContext, parent, taskID, node string, start, end time.Time, attempt int, won bool, err error) {
	tr := run.engine.opts.Tracer
	if !tr.Enabled() || !tsc.Valid() {
		return
	}
	status := "ok"
	if err != nil {
		status = "error"
	}
	s := obs.Span{
		Job: run.jobID, Name: obs.PhaseTask, Node: node, TaskID: taskID,
		Start: start, End: end,
		Attrs: obs.Attrs(
			"attempt", strconv.Itoa(attempt),
			"won", strconv.FormatBool(won),
			"status", status),
	}
	tsc.Fill(&s, parent)
	tr.Emit(s)
}

// observeDur records d into the named histogram when a registry is attached.
func (run *jobRun) observeDur(name string, d time.Duration) {
	if m := run.engine.opts.Metrics; m != nil {
		m.Histogram(name).ObserveDuration(d)
	}
}

// ---------------------------------------------------------------- map phase

// taskSched assigns tasks of one phase to requesting slot workers. It
// implements locality preference with delay scheduling: a worker with no
// local pending task waits a few completion rounds before accepting remote
// work, which is what keeps map tasks data-local in a loaded Hadoop
// cluster. It also enforces the capacity scheduler's per-node concurrency
// cap and routes retries away from the node where the task last failed.
type taskSched struct {
	mu        sync.Mutex
	cond      *sync.Cond
	kind      string // "m" or "r"
	localOf   func(int) []string
	pending   map[int]bool
	attempts  []int
	lastNode  []string
	running   map[string]int
	totalRun  int
	misses    map[string]int
	capNode   int
	completed int
	total     int
	aborted   error
	// Delay scheduling counts a node's pass over remote work as a miss
	// only if a live node holding pending work has had a scheduling turn
	// (turns, compared against the node's snapshot in seen) since its last
	// counted miss — so a node never gives up on locality before the nodes
	// that hold the data have had a chance to claim it. gone marks nodes
	// whose slot workers left the phase.
	turns map[string]int
	seen  map[string]map[string]int
	gone  map[string]bool
	// speculative enables backup attempts of running tasks once the pending
	// queue drains; active tracks live attempts per task and doneSet the
	// tasks that already completed (their late attempts are ignored).
	speculative bool
	active      map[int]int
	doneSet     map[int]bool
	// isAlive, when set, gates assignment on node liveness: a dead node's
	// slot workers are told to exit instead of receiving attempts (which
	// would burn the task's retry budget on guaranteed failures).
	isAlive func(node string) bool
	// eagerRequeue lets onNodeDeath put a dead node's in-flight tasks back
	// on the pending queue immediately instead of waiting for the doomed
	// attempts to report failure. Only safe when task output is buffered
	// and committed first-wins (map tasks of jobs with reducers) — the
	// zombie attempt and its replacement may otherwise both publish.
	eagerRequeue bool
	// started counts launched attempts per task (attempt numbering);
	// specLaunched counts speculative backups for the job counters.
	started      []int
	specLaunched int64
	// claimed marks tasks one of whose staged attempts holds the right to
	// publish its output (see claimCommit).
	claimed map[int]bool
	// readyAt is when each task last became schedulable (phase start or
	// requeue after a failed attempt); lastWait is the queue wait measured
	// at the most recent assignment, read back by the slot worker for the
	// queue-wait span.
	readyAt  []time.Time
	lastWait []time.Duration
}

// delayTolerance is how many scheduling turns of the nodes holding pending
// work a worker waits for local work before settling for a remote task.
const delayTolerance = 3

func newTaskSched(kind string, total, capNode int, localOf func(int) []string) *taskSched {
	if localOf == nil {
		localOf = func(int) []string { return nil }
	}
	s := &taskSched{
		kind:     kind,
		localOf:  localOf,
		pending:  make(map[int]bool, total),
		attempts: make([]int, total),
		lastNode: make([]string, total),
		running:  make(map[string]int),
		misses:   make(map[string]int),
		turns:    make(map[string]int),
		seen:     make(map[string]map[string]int),
		gone:     make(map[string]bool),
		active:   make(map[int]int),
		doneSet:  make(map[int]bool),
		claimed:  make(map[int]bool),
		started:  make([]int, total),
		readyAt:  make([]time.Time, total),
		lastWait: make([]time.Duration, total),
		capNode:  capNode,
		total:    total,
	}
	now := time.Now()
	for i := 0; i < total; i++ {
		s.pending[i] = true
		s.readyAt[i] = now
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// next blocks until a task is assignable to the node, everything finished,
// or the job aborted. ok is false when the worker should exit.
func (s *taskSched) next(node string) (task, attempt int, local, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.aborted != nil || s.completed == s.total {
			return 0, 0, false, false
		}
		if s.isAlive != nil && !s.isAlive(node) {
			s.gone[node] = true
			return 0, 0, false, false
		}
		s.turns[node]++
		s.gone[node] = false
		if s.running[node] < s.capNode {
			// First preference: a task whose data is local.
			for t := range s.pending {
				for _, h := range s.localOf(t) {
					if h == node {
						return s.assign(t, node, true)
					}
				}
			}
			// Speculative execution: with nothing pending but tasks still
			// running, launch a backup attempt on a different node.
			if len(s.pending) == 0 && s.speculative {
				for t := range s.active {
					if s.active[t] == 1 && !s.doneSet[t] && s.lastNode[t] != node {
						s.specLaunched++
						return s.assign(t, node, false)
					}
				}
			}
			// Remote work, subject to delay scheduling.
			if t, ok := s.remote(node); ok {
				s.misses[node] = 0
				return s.assign(t, node, false)
			}
		}
		s.noteMiss(node)
		if s.totalRun == 0 {
			// Nothing in flight, so no completion will broadcast; yield
			// briefly instead of waiting so other nodes' slot workers get
			// scheduled and claim their local splits.
			s.mu.Unlock()
			time.Sleep(50 * time.Microsecond)
			s.mu.Lock()
		} else {
			s.cond.Wait()
		}
	}
}

// holder reports whether h is a live node, other than node, whose slot
// workers are still in the phase — one that could claim its local work.
func (s *taskSched) holder(h, node string) bool {
	return h != node && !s.gone[h] && (s.isAlive == nil || s.isAlive(h))
}

// remote picks a pending task for node to run remotely. A task no holder
// can claim goes at once — there is no local claimant to wait for. Any
// other task waits until node has missed delayTolerance turns (delay
// scheduling). Among candidates, the node the task last failed on is
// avoided when an alternative exists.
func (s *taskSched) remote(node string) (int, bool) {
	best := -1
pending:
	for t := range s.pending {
		if s.misses[node] < delayTolerance {
			for _, h := range s.localOf(t) {
				if s.holder(h, node) {
					continue pending
				}
			}
		}
		if s.lastNode[t] != node {
			return t, true
		}
		if best == -1 {
			best = t
		}
	}
	return best, best >= 0
}

// noteMiss records a pass in which node took no task. It counts as a
// delay-scheduling miss only if a holder of pending work has had a
// scheduling turn since node's last counted miss; a wall-clock yield or a
// wake-up alone never does.
func (s *taskSched) noteMiss(node string) {
	seen := s.seen[node]
	if seen == nil {
		seen = make(map[string]int)
		s.seen[node] = seen
	}
	moved := false
	for t := range s.pending {
		for _, h := range s.localOf(t) {
			if s.holder(h, node) && s.turns[h] > seen[h] {
				seen[h] = s.turns[h]
				moved = true
			}
		}
	}
	if moved {
		s.misses[node]++
	}
}

func (s *taskSched) assign(t int, node string, local bool) (int, int, bool, bool) {
	delete(s.pending, t)
	s.running[node]++
	s.totalRun++
	s.active[t]++
	s.started[t]++
	s.lastNode[t] = node
	s.lastWait[t] = time.Since(s.readyAt[t])
	return t, s.started[t], local, true
}

// claimCommit gives one attempt of a task the right to publish its staged
// output: the first to ask while no sibling has committed or is committing.
// A committer whose publish fails calls releaseCommit so a sibling (or a
// retry) can commit instead.
func (s *taskSched) claimCommit(t int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.doneSet[t] || s.claimed[t] {
		return false
	}
	s.claimed[t] = true
	return true
}

func (s *taskSched) releaseCommit(t int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.claimed, t)
}

// queueWait returns the queue wait of the task's most recent assignment;
// valid for the worker that was just assigned the task.
func (s *taskSched) queueWait(t int) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastWait[t]
}

// isCompleted reports whether another attempt already finished the task;
// in-flight attempts poll it to abandon superseded work.
func (s *taskSched) isCompleted(t int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.doneSet[t]
}

// complete records a finished attempt; failed tasks are requeued until the
// attempt budget is exhausted. It reports whether this attempt won the
// task: exactly one attempt per task returns won=true (the one that flipped
// it into doneSet), so callers can publish output, task reports and
// duration metrics exactly once even when a speculative backup and the
// original finish near-simultaneously.
func (s *taskSched) complete(task int, node string, err error, maxAttempts int) (won bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.running[node]--
	s.totalRun--
	s.active[task]--
	if s.doneSet[task] {
		// A sibling attempt already won; this result (success, failure or
		// abandonment) is irrelevant.
		s.cond.Broadcast()
		return false
	}
	s.attempts[task]++
	switch {
	case err == nil:
		s.doneSet[task] = true
		s.completed++
		won = true
	case s.active[task] > 0:
		// A backup attempt is still running; let it decide the task's fate
		// instead of requeueing a duplicate.
	case s.attempts[task] >= maxAttempts:
		if s.aborted == nil {
			s.aborted = fmt.Errorf("task %s-%d failed %d times, last: %w", s.kind, task, s.attempts[task], err)
		}
	default:
		s.pending[task] = true
		s.readyAt[task] = time.Now()
	}
	s.cond.Broadcast()
	return won
}

// onNodeDeath reacts to a node dying mid-phase: it wakes every blocked slot
// worker (the dead node's workers observe isAlive and exit) and, when eager
// requeue is enabled, puts the dead node's in-flight tasks back on the
// pending queue so live nodes pick them up immediately rather than after
// the doomed attempts time out. It returns the number of tasks requeued.
func (s *taskSched) onNodeDeath(node string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	requeued := 0
	if s.eagerRequeue {
		for t, n := range s.active {
			if n > 0 && s.lastNode[t] == node && !s.doneSet[t] && !s.pending[t] {
				s.pending[t] = true
				s.readyAt[t] = time.Now()
				requeued++
			}
		}
	}
	s.cond.Broadcast()
	return requeued
}

// cancel aborts the phase: no further tasks are assigned and all blocked
// slot workers wake and exit. The first abort cause sticks.
func (s *taskSched) cancel(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.aborted == nil {
		s.aborted = err
	}
	s.cond.Broadcast()
}

func (s *taskSched) result(phase string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.aborted != nil {
		return s.aborted
	}
	if s.completed != s.total {
		return fmt.Errorf("mr: %d of %d %s tasks completed (cluster lost?)", s.completed, s.total, phase)
	}
	return nil
}

// ErrSuperseded marks an attempt abandoned because a speculative sibling
// finished first; it is not a failure. A MapRunner that polls
// TaskContext.Superseded returns it to abandon its work.
var ErrSuperseded = fmt.Errorf("mr: attempt superseded by a faster sibling")

func (run *jobRun) mapPhase() error {
	sched := newTaskSched("m", len(run.splits), run.capPerNode(),
		func(t int) []string { return run.splits[t].Locations() })
	// Speculation is only safe when map output is committed first-wins:
	// buffered map output of jobs with reducers, or a map-only job's
	// StagedOutput. A map-only job writing straight to its OutputFormat
	// would duplicate rows through a losing attempt's partial output.
	_, staged := run.job.Output.(StagedOutput)
	sched.speculative = run.job.conf().GetBool(ConfSpeculative, false) && (run.job.NumReduceTasks > 0 || staged)
	run.staged = sched.speculative && run.job.NumReduceTasks == 0
	run.mapSched = sched
	// Eager requeue on node death shares the same first-wins requirement:
	// the dead node's attempt may still be mid-write when its replacement
	// starts.
	sched.eagerRequeue = run.job.NumReduceTasks > 0
	sched.isAlive = func(id string) bool {
		nd := run.engine.cluster.Node(id)
		return nd != nil && nd.IsAlive()
	}
	unwatch := run.engine.cluster.OnDeath(func(n *cluster.Node) {
		if k := sched.onNodeDeath(n.ID()); k > 0 {
			run.counters.Add(CtrAttemptsRequeuedDeadNode, int64(k))
			if m := run.engine.opts.Metrics; m != nil {
				m.Counter("mr.attempts_requeued_dead_node").Add(int64(k))
			}
		}
	})
	defer unwatch()
	stop := context.AfterFunc(run.ctx, func() {
		sched.cancel(run.cancelErr(run.ctx.Err()))
	})
	defer stop()

	var wg sync.WaitGroup
	for _, node := range run.engine.cluster.Alive() {
		for slot := 0; slot < run.engine.cluster.Config().MapSlots; slot++ {
			wg.Add(1)
			go func(n *cluster.Node) {
				defer wg.Done()
				// next returns !ok once the node dies, noting that its
				// workers left the phase.
				for {
					task, attempt, local, ok := sched.next(n.ID())
					if !ok {
						return
					}
					taskID := fmt.Sprintf("m-%d", task)
					qwait := sched.queueWait(task)
					start := time.Now()
					tsc := run.jctx.Trace.NewChild()
					run.emitSpanUnder(tsc, obs.PhaseQueueWait, n.ID(), taskID, start.Add(-qwait), start)
					run.observeDur("mr.queue_wait_ns", qwait)
					superseded := func() bool { return sched.isCompleted(task) || run.ctx.Err() != nil }
					out, phases, err := run.executeMapAttempt(task, n, attempt, local, qwait, tsc, superseded)
					won := sched.complete(task, n.ID(), err, run.engine.opts.MaxTaskAttempts)
					run.emitTaskSpan(tsc, run.jctx.Trace.Span, taskID, n.ID(), start.Add(-qwait), time.Now(), attempt, won, err)
					switch {
					case err == nil && won:
						// Exactly one attempt per task wins; only it
						// publishes output and reports, so a speculative
						// backup and the original finishing together cannot
						// double-count task metrics.
						run.outMu.Lock()
						if run.mapOutputs[task] == nil {
							run.mapOutputs[task] = out
						}
						run.outMu.Unlock()
						dur := time.Since(start)
						run.addReport(TaskReport{
							TaskID: taskID, Node: n.ID(), Attempts: attempt,
							Start: start, Duration: dur, Local: local, Phases: phases,
						})
						run.observeDur("mr.map.duration_ns", dur)
					case err == nil:
						// Successful loser of a speculative race; discarded.
					case errors.Is(err, ErrSuperseded):
						// Abandoned backup; not a retryable failure.
					case run.ctx.Err() != nil:
						// Job canceled; the ctx watcher aborts the scheduler,
						// so this is not a retryable failure either.
					default:
						run.counters.Add(CtrTaskRetries, 1)
					}
				}
			}(node)
		}
	}
	wg.Wait()
	sched.mu.Lock()
	run.counters.Add(CtrSpeculativeMaps, sched.specLaunched)
	sched.mu.Unlock()
	return sched.result("map")
}

// executeMapAttempt runs one attempt of one map task on a node and returns
// its sorted/combined output (nil parts for map-only jobs, whose output goes
// straight to the OutputFormat) plus the attempt's measured sub-phase
// durations.
func (run *jobRun) executeMapAttempt(task int, node *cluster.Node, attempt int, local bool, qwait time.Duration, tsc obs.SpanContext, superseded func() bool) (mo *mapOutput, phases map[string]time.Duration, err error) {
	e := run.engine
	taskID := fmt.Sprintf("m-%d", task)
	run.counters.Add(CtrMapTasks, 1)
	if local {
		run.counters.Add(CtrDataLocalMaps, 1)
	} else {
		run.counters.Add(CtrRemoteMaps, 1)
	}
	if cerr := run.ctx.Err(); cerr != nil {
		return nil, nil, run.cancelErr(cerr)
	}
	if run.job.FailureInjector != nil {
		if ferr := run.job.FailureInjector(taskID, attempt); ferr != nil {
			return nil, nil, ferr
		}
	}
	launchStart := time.Now()
	node.ChargeOverhead(e.opts.TaskLaunchOverhead)
	launchDur := time.Since(launchStart)

	jvmStart := time.Now()
	jvm, fresh := run.pool(node.ID()).acquire(run.reuse)
	var jvmDur time.Duration
	if fresh {
		run.counters.Add(CtrJVMsStarted, 1)
		node.ChargeOverhead(e.opts.JVMStartup)
		jvmDur = time.Since(jvmStart)
		run.emitSpanUnder(tsc, obs.PhaseJVMStart, node.ID(), taskID, jvmStart, jvmStart.Add(jvmDur))
	} else {
		run.counters.Add(CtrJVMReuses, 1)
	}
	defer run.pool(node.ID()).release(jvm, run.reuse)

	ctx := &TaskContext{
		JobContext: run.jctx,
		TaskID:     taskID,
		Attempt:    attempt,
		node:       node,
		jvm:        jvm,
		job:        run.job,
		sc:         tsc,
		allowance:  run.taskMem,
		superseded: superseded,
		runCtx:     run.ctx,
	}
	ctx.ObservePhase(obs.PhaseQueueWait, qwait)
	if launchDur > 0 {
		ctx.ObservePhase(obs.PhaseLaunch, launchDur)
		run.emitSpanUnder(tsc, obs.PhaseLaunch, node.ID(), taskID, launchStart, launchStart.Add(launchDur))
	}
	if fresh {
		ctx.ObservePhase(obs.PhaseJVMStart, jvmDur)
	}
	defer ctx.releaseAll()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("map task m-%d panicked: %v", task, r)
		}
	}()

	jvmAttr := "reused"
	if fresh {
		jvmAttr = "fresh"
	}
	mapStart := time.Now()
	reader, err := run.job.Input.Open(run.splits[task], ctx)
	if err != nil {
		return nil, nil, err
	}
	defer reader.Close()

	var collector Collector
	var mc *mapCollector
	var writer RecordWriter
	var commit func() error
	abort := func() {}
	if run.job.NumReduceTasks > 0 {
		mc = newMapCollector(run.job.NumReduceTasks, run.job.Partitioner, run.counters)
		collector = mc
	} else {
		if run.staged {
			writer, commit, abort, err = run.job.Output.(StagedOutput).OpenStaged(ctx, task)
		} else {
			writer, err = run.job.Output.OpenWriter(ctx, task)
		}
		if err != nil {
			return nil, nil, err
		}
		collector = &writerCollector{w: writer, counters: run.counters}
	}

	var runner MapRunner
	if run.job.NewMapRunner != nil {
		runner = run.job.NewMapRunner()
	} else {
		runner = &defaultMapRunner{newMapper: run.job.NewMapper}
	}
	if err := runner.Run(ctx, reader, collector); err != nil {
		if writer != nil {
			writer.Close()
			abort()
		}
		return nil, nil, err
	}
	if writer != nil {
		if err := writer.Close(); err != nil {
			abort()
			return nil, nil, err
		}
		if commit != nil {
			if err := run.commitAttempt(task, commit, abort); err != nil {
				return nil, nil, err
			}
		}
		ctx.Span(obs.PhaseMap, mapStart, "local", strconv.FormatBool(local), "jvm", jvmAttr)
		return &mapOutput{node: node.ID()}, ctx.Phases(), nil
	}
	ctx.Span(obs.PhaseMap, mapStart, "local", strconv.FormatBool(local), "jvm", jvmAttr)

	combineStart := time.Now()
	out, err := mc.finish(ctx, run.job)
	if err != nil {
		return nil, nil, err
	}
	ctx.Span(obs.PhaseCombine, combineStart)
	// Spilling the sorted output to the node's local disk (raw device, not
	// HDFS).
	var spill int64
	for p := range out.parts {
		spill += out.partBytes(p)
	}
	spillStart := time.Now()
	if err := node.ChargeDiskWrite(spill, false); err != nil {
		return nil, nil, err
	}
	ctx.Span(obs.PhaseSpill, spillStart, "bytes", strconv.FormatInt(spill, 10))
	return out, ctx.Phases(), nil
}

// commitAttempt publishes a staged attempt's output if no sibling attempt
// has committed the task or is committing it; a loser discards its output
// and reports ErrSuperseded.
func (run *jobRun) commitAttempt(task int, commit func() error, abort func()) error {
	if !run.mapSched.claimCommit(task) {
		abort()
		return ErrSuperseded
	}
	if err := commit(); err != nil {
		run.mapSched.releaseCommit(task)
		abort()
		return err
	}
	return nil
}

// defaultMapRunner is the stock record-at-a-time loop (§3).
type defaultMapRunner struct {
	newMapper func() Mapper
}

func (r *defaultMapRunner) Run(ctx *TaskContext, reader RecordReader, out Collector) error {
	m := r.newMapper()
	if err := m.Setup(ctx); err != nil {
		return err
	}
	n := 0
	for {
		k, v, ok, err := reader.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		n++
		if n%128 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
			if ctx.Superseded() {
				return ErrSuperseded
			}
		}
		ctx.Counters.Add(CtrMapInputRecords, 1)
		if err := m.Map(k, v, out); err != nil {
			return err
		}
	}
	return m.Cleanup(out)
}

// writerCollector adapts an OutputFormat writer for map-only jobs; it is
// synchronized so multi-threaded runners can share it.
type writerCollector struct {
	mu       sync.Mutex
	w        RecordWriter
	counters *Counters
}

func (c *writerCollector) Collect(k, v records.Record) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.counters.Add(CtrMapOutputRecords, 1)
	return c.w.Write(k, v)
}

// mapCollector partitions and buffers map output, then sorts and combines.
// Collect serializes immediately and retains no records, so mappers and map
// runners may reuse key/value records (and their backing value slices)
// across Collect calls.
type mapCollector struct {
	mu          sync.Mutex
	parts       [][]kvEntry
	partitioner Partitioner
	counters    *Counters
	seq         uint64
}

func newMapCollector(numParts int, p Partitioner, c *Counters) *mapCollector {
	return &mapCollector{parts: make([][]kvEntry, numParts), partitioner: p, counters: c}
}

func (c *mapCollector) Collect(k, v records.Record) error {
	// Serialization happens here, as in Hadoop's collect path; its cost is
	// real work in the simulation too.
	kb := k.Encode()
	vb := v.Encode()
	p := c.partitioner(k, len(c.parts))
	if p < 0 || p >= len(c.parts) {
		return fmt.Errorf("mr: partitioner returned %d of %d", p, len(c.parts))
	}
	c.mu.Lock()
	c.seq++
	c.parts[p] = append(c.parts[p], kvEntry{key: kb, val: vb, seq: c.seq})
	c.mu.Unlock()
	c.counters.Add(CtrMapOutputRecords, 1)
	c.counters.Add(CtrMapOutputBytes, int64(len(kb)+len(vb)))
	return nil
}

// finish sorts each partition and applies the combiner.
func (c *mapCollector) finish(ctx *TaskContext, job *Job) (*mapOutput, error) {
	out := &mapOutput{node: ctx.node.ID(), parts: make([][]kvEntry, len(c.parts))}
	for p, entries := range c.parts {
		sort.Sort(kvByKey(entries))
		if job.NewCombiner != nil && len(entries) > 0 {
			combined, err := runCombiner(ctx, job, entries)
			if err != nil {
				return nil, err
			}
			entries = combined
		}
		out.parts[p] = entries
	}
	return out, nil
}

// runCombiner groups sorted entries and feeds them through a fresh combiner.
func runCombiner(ctx *TaskContext, job *Job, entries []kvEntry) ([]kvEntry, error) {
	comb := job.NewCombiner()
	if err := comb.Setup(ctx); err != nil {
		return nil, err
	}
	sink := &entrySink{}
	ctx.Counters.Add(CtrCombineInput, int64(len(entries)))
	if err := forEachGroup(entries, job.KeySchema, job.ValueSchema, func(key records.Record, vals Values) error {
		return comb.Reduce(key, vals, sink)
	}); err != nil {
		return nil, err
	}
	if err := comb.Cleanup(sink); err != nil {
		return nil, err
	}
	ctx.Counters.Add(CtrCombineOutput, int64(len(sink.out)))
	// Combiner output for a sorted input with grouped keys is still sorted
	// as long as the combiner emits one pair per group in order, which the
	// grouping loop guarantees; re-sort defensively anyway.
	sort.Sort(kvByKey(sink.out))
	return sink.out, nil
}

// entrySink collects combiner output back into entries.
type entrySink struct {
	out []kvEntry
}

func (s *entrySink) Collect(k, v records.Record) error {
	s.out = append(s.out, kvEntry{key: k.Encode(), val: v.Encode(), seq: uint64(len(s.out))})
	return nil
}

// forEachGroup walks sorted entries and invokes fn once per distinct key
// with an iterator over that key's values. Keys group by byte equality and
// are decoded once per group against keySchema (nil yields a positional
// record, matching jobs that set no KeySchema).
func forEachGroup(entries []kvEntry, keySchema, valueSchema *records.Schema, fn func(key records.Record, vals Values) error) error {
	i := 0
	for i < len(entries) {
		j := i + 1
		for j < len(entries) && bytes.Equal(entries[j].key, entries[i].key) {
			j++
		}
		key, _, err := records.DecodeRecord(entries[i].key, keySchema)
		if err != nil {
			return fmt.Errorf("mr: decoding group key: %w", err)
		}
		it := &sliceValues{entries: entries[i:j], schema: valueSchema}
		if err := fn(key, it); err != nil {
			return err
		}
		if it.err != nil {
			return it.err
		}
		i = j
	}
	return nil
}

// sliceValues lazily decodes the serialized values of one group.
type sliceValues struct {
	entries []kvEntry
	schema  *records.Schema
	pos     int
	err     error
}

func (s *sliceValues) Next() (records.Record, bool) {
	if s.pos >= len(s.entries) || s.err != nil {
		return records.Record{}, false
	}
	r, _, err := records.DecodeRecord(s.entries[s.pos].val, s.schema)
	if err != nil {
		s.err = err
		return records.Record{}, false
	}
	s.pos++
	return r, true
}
