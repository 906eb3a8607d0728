package main

import (
	"bufio"
	"context"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"
)

// recorder keeps every span of a traced run in memory, in the program's
// own in-memory sink: the benchmark's spans around each call into the
// program, and the spans the program emits once its tracing is on.
// Nothing is written until the run ends. A nil *recorder records
// nothing, which is how untraced runs call it.
type recorder struct {
	*memorySink
	seq atomic.Int64
}

func newRecorder() *recorder { return &recorder{memorySink: newMemorySink()} }

func (r *recorder) newID(prefix string) string {
	return prefix + strconv.FormatInt(r.seq.Add(1), 36)
}

// request is one traced request: a root span whose children are the
// calls made for it.
type request struct {
	r     *recorder
	trace string
	root  string
	name  string
	start time.Time
}

func (r *recorder) begin(name string) *request {
	if r == nil {
		return nil
	}
	return &request{r: r, trace: r.newID("bench-t"), root: r.newID("bench-s"), name: name, start: time.Now()}
}

// end emits the request's root span.
func (q *request) end() {
	if q == nil {
		return
	}
	q.r.Emit(span{Trace: q.trace, SpanID: q.root, Name: "request", Start: q.start, End: time.Now(),
		Attrs: map[string]string{"query": q.name}})
}

// call times fn as a child span of the request named after the public
// function it wraps. fn receives a context carrying the span, so spans
// the program emits for the call parent under it.
func (q *request) call(ctx context.Context, name string, fn func(context.Context) error) error {
	if q == nil {
		return fn(ctx)
	}
	id := q.r.newID("bench-s")
	start := time.Now()
	err := fn(withTrace(ctx, q.trace, id))
	q.r.Emit(span{Trace: q.trace, SpanID: id, Parent: q.root, Name: name, Start: start, End: time.Now()})
	return err
}

// timed is a call outside any request (a roll-in, a compaction): a
// one-span trace of its own.
func (r *recorder) timed(name string, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	if r != nil {
		r.Emit(span{Trace: r.newID("bench-t"), SpanID: r.newID("bench-s"), Name: name, Start: start, End: end})
	}
	return end.Sub(start), err
}

// spanTimes summarizes a traced run's spans.
type spanTimes struct {
	// byName holds the durations of the benchmark's own spans per name.
	byName map[string][]time.Duration
	// phaseWall sums the program's per-phase walls over every trace that
	// ran a MapReduce job.
	phaseWall map[string]time.Duration
	// runWalls and runSelf are the duration and self time of each span a
	// job ran under, as the program's profiler assembles them.
	runWalls, runSelf []time.Duration
	// admitWaits are the session's admission-wait spans.
	admitWaits []time.Duration
}

// summarize groups spans by trace and runs the program's profiler over
// each trace that ran a job.
func summarize(spans []span) spanTimes {
	st := spanTimes{byName: map[string][]time.Duration{}, phaseWall: map[string]time.Duration{}}
	byTrace := map[string][]span{}
	ranJob := map[string]bool{}
	for _, s := range spans {
		if s.Name == "admission-wait" {
			st.admitWaits = append(st.admitWaits, s.Duration())
		}
		if isBenchSpan(s) && s.Name != "request" {
			st.byName[s.Name] = append(st.byName[s.Name], s.Duration())
		}
		if s.Trace != "" {
			byTrace[s.Trace] = append(byTrace[s.Trace], s)
			ranJob[s.Trace] = ranJob[s.Trace] || s.Name == "job"
		}
	}
	for trace, ran := range ranJob {
		if !ran {
			continue
		}
		p, err := profileTrace(byTrace[trace])
		if err != nil {
			continue
		}
		for name, d := range p.phases {
			st.phaseWall[name] += d
		}
		st.runWalls = append(st.runWalls, p.runWalls...)
		st.runSelf = append(st.runSelf, p.runSelf...)
	}
	return st
}

func isBenchSpan(s span) bool { return len(s.SpanID) > 7 && s.SpanID[:7] == "bench-s" }

// writeSpanFile exports the recorded spans as JSON lines.
func writeSpanFile(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := writeSpans(bw, spans); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
