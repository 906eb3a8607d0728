package mr

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"clydesdale/internal/cluster"
	"clydesdale/internal/obs"
	"clydesdale/internal/records"
)

// reducePhase shuffles the map outputs and runs the reduce tasks over the
// live nodes' reduce slots, with the same retry/rescheduling machinery as
// the map phase (a failed attempt prefers a different node).
func (run *jobRun) reducePhase() error {
	sched := newTaskSched("r", run.job.NumReduceTasks, run.engine.cluster.Config().ReduceSlots, nil)
	// No eager requeue for reduces: they write straight to the OutputFormat,
	// so a zombie attempt on a dying node and its replacement could both
	// publish partition output. Dead-node reduce attempts fail on their next
	// charge and are requeued by complete; the death watcher only wakes
	// blocked workers so the dead node's slots exit promptly.
	sched.isAlive = func(id string) bool {
		nd := run.engine.cluster.Node(id)
		return nd != nil && nd.IsAlive()
	}
	unwatch := run.engine.cluster.OnDeath(func(n *cluster.Node) { sched.onNodeDeath(n.ID()) })
	defer unwatch()
	stop := context.AfterFunc(run.ctx, func() {
		sched.cancel(run.cancelErr(run.ctx.Err()))
	})
	defer stop()

	var wg sync.WaitGroup
	for _, node := range run.engine.cluster.Alive() {
		for slot := 0; slot < run.engine.cluster.Config().ReduceSlots; slot++ {
			wg.Add(1)
			go func(n *cluster.Node) {
				defer wg.Done()
				// next returns !ok once the node dies, noting that its
				// workers left the phase.
				for {
					task, attempt, _, ok := sched.next(n.ID())
					if !ok {
						return
					}
					taskID := fmt.Sprintf("r-%d", task)
					qwait := sched.queueWait(task)
					start := time.Now()
					tsc := run.jctx.Trace.NewChild()
					run.emitSpanUnder(tsc, obs.PhaseQueueWait, n.ID(), taskID, start.Add(-qwait), start)
					run.observeDur("mr.queue_wait_ns", qwait)
					phases, err := run.executeReduceAttempt(task, n, attempt, qwait, tsc)
					won := sched.complete(task, n.ID(), err, run.engine.opts.MaxTaskAttempts)
					run.emitTaskSpan(tsc, run.jctx.Trace.Span, taskID, n.ID(), start.Add(-qwait), time.Now(), attempt, won, err)
					if err == nil && won {
						dur := time.Since(start)
						run.addReport(TaskReport{
							TaskID: taskID, Node: n.ID(),
							Attempts: attempt, Start: start, Duration: dur,
							Phases: phases,
						})
						run.observeDur("mr.reduce.duration_ns", dur)
					} else if err != nil && run.ctx.Err() == nil {
						run.counters.Add(CtrTaskRetries, 1)
					}
				}
			}(node)
		}
	}
	wg.Wait()
	return sched.result("reduce")
}

// executeReduceAttempt fetches, merges and reduces partition idx, returning
// the attempt's measured sub-phase durations.
func (run *jobRun) executeReduceAttempt(idx int, node *cluster.Node, attempt int, qwait time.Duration, tsc obs.SpanContext) (phases map[string]time.Duration, err error) {
	e := run.engine
	taskID := fmt.Sprintf("r-%d", idx)
	run.counters.Add(CtrReduceTasks, 1)
	if cerr := run.ctx.Err(); cerr != nil {
		return nil, run.cancelErr(cerr)
	}
	if run.job.FailureInjector != nil {
		if ferr := run.job.FailureInjector(taskID, attempt); ferr != nil {
			return nil, ferr
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
			err = fmt.Errorf("reduce task r-%d panicked: %v", idx, r)
		}
	}()

	shuffleStart := time.Now()
	entries, err := run.fetchPartition(ctx, idx, node)
	if err != nil {
		return nil, err
	}
	ctx.Span(obs.PhaseShuffle, shuffleStart, "records", strconv.Itoa(len(entries)))
	// Merge: the fetched runs are each sorted; a full sort is equivalent.
	// fetchPartition reassigned seq in fetch order, so ties keep the
	// deterministic map-task order.
	sortStart := time.Now()
	sort.Sort(kvByKey(entries))
	ctx.Span(obs.PhaseSort, sortStart)

	writer, err := run.job.Output.OpenWriter(ctx, idx)
	if err != nil {
		return nil, err
	}
	red := run.job.NewReducer()
	if err := red.Setup(ctx); err != nil {
		writer.Close()
		return nil, err
	}
	reduceStart := time.Now()
	out := &writerCollectorReduce{w: writer, counters: run.counters}
	run.counters.Add(CtrReduceInputRecords, int64(len(entries)))
	if err := forEachGroup(entries, run.job.KeySchema, run.job.ValueSchema, func(key records.Record, vals Values) error {
		run.counters.Add(CtrReduceInputGroups, 1)
		return red.Reduce(key, vals, out)
	}); err != nil {
		writer.Close()
		return nil, err
	}
	if err := red.Cleanup(out); err != nil {
		writer.Close()
		return nil, err
	}
	if err := writer.Close(); err != nil {
		return nil, err
	}
	ctx.Span(obs.PhaseReduce, reduceStart)
	return ctx.Phases(), nil
}

// fetchPartition gathers partition idx from every map output, charging
// local-disk reads at the serving node and network for cross-node copies.
// Map outputs lost to a dead node are regenerated by re-executing the map
// task on the fetching node, the recovery behaviour Hadoop implements. The
// re-executed map's spans nest under the fetching reduce attempt's span —
// in the profile the recovery cost shows up inside the shuffle that paid it.
func (run *jobRun) fetchPartition(rctx *TaskContext, idx int, node *cluster.Node) ([]kvEntry, error) {
	var entries []kvEntry
	for t := range run.splits {
		for {
			run.outMu.Lock()
			mo := run.mapOutputs[t]
			run.outMu.Unlock()

			srcAlive := mo != nil && run.engine.cluster.Node(mo.node) != nil && run.engine.cluster.Node(mo.node).IsAlive()
			if !srcAlive {
				// Re-execute the map task here to regenerate its output.
				run.counters.Add(CtrMapsReExecuted, 1)
				mtsc := rctx.sc.NewChild()
				restart := time.Now()
				regenerated, _, err := run.executeMapAttempt(t, node, 1, isLocalSplit(run.splits[t], node.ID()), 0, mtsc, func() bool { return false })
				run.emitTaskSpan(mtsc, rctx.sc.Span, fmt.Sprintf("m-%d", t), node.ID(), restart, time.Now(), 1, err == nil, err)
				if err != nil {
					return nil, fmt.Errorf("re-executing map %d for shuffle: %w", t, err)
				}
				run.outMu.Lock()
				run.mapOutputs[t] = regenerated
				run.outMu.Unlock()
				mo = regenerated
			}

			part := mo.parts[idx]
			bytes := mo.partBytes(idx)
			src := run.engine.cluster.Node(mo.node)
			if err := src.ChargeDiskRead(bytes, false); err != nil {
				if errors.Is(err, cluster.ErrNodeDown) && mo.node != node.ID() {
					// The source died between the liveness check and the
					// read; drop the stale output and regenerate it here.
					run.outMu.Lock()
					if run.mapOutputs[t] == mo {
						run.mapOutputs[t] = nil
					}
					run.outMu.Unlock()
					continue
				}
				return nil, err
			}
			run.counters.Add(CtrShuffleBytes, bytes)
			if mo.node != node.ID() {
				if err := node.ChargeNet(bytes); err != nil {
					return nil, err
				}
				run.counters.Add(CtrShuffleRemoteBytes, bytes)
			}
			entries = append(entries, part...)
			break
		}
	}
	// Re-number seq in fetch order (map-task order is deterministic) so the
	// merge sort's tie-break does not depend on per-map sequence counters.
	for i := range entries {
		entries[i].seq = uint64(i)
	}
	return entries, nil
}

func isLocalSplit(s InputSplit, node string) bool {
	for _, h := range s.Locations() {
		if h == node {
			return true
		}
	}
	return false
}

// writerCollectorReduce counts reduce output records.
type writerCollectorReduce struct {
	mu       sync.Mutex
	w        RecordWriter
	counters *Counters
}

func (c *writerCollectorReduce) Collect(k, v records.Record) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.counters.Add(CtrReduceOutput, 1)
	return c.w.Write(k, v)
}
