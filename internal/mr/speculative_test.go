package mr

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"clydesdale/internal/records"
)

// stragglerMapper sleeps per record during the *first* attempt of one task,
// simulating a degraded machine; backup attempts run at full speed.
type stragglerMapper struct {
	slowTask string
	delay    time.Duration
	ctx      *TaskContext
}

func (m *stragglerMapper) Setup(ctx *TaskContext) error { m.ctx = ctx; return nil }
func (m *stragglerMapper) Cleanup(Collector) error      { return nil }
func (m *stragglerMapper) Map(_, v records.Record, out Collector) error {
	if m.ctx.TaskID == m.slowTask && m.ctx.Attempt == 1 {
		time.Sleep(m.delay)
	}
	return out.Collect(v, records.Make(countSchema, records.Int(1)))
}

// bigWordSplit builds one split with n copies of the same word.
func bigWordSplit(word string, n int, hosts ...string) *MemorySplit {
	s := &MemorySplit{Hosts: hosts}
	for i := 0; i < n; i++ {
		s.Pairs = append(s.Pairs, KV{Value: records.Make(wordSchema, records.Str(word))})
	}
	return s
}

// TestSpeculativeExecutionMitigatesStraggler pins a big split to a node
// that processes records pathologically slowly. With speculation enabled, a
// healthy node runs a backup attempt, wins, and the straggling attempt
// abandons itself — the job finishes fast and the counts stay exact.
func TestSpeculativeExecutionMitigatesStraggler(t *testing.T) {
	e := newTestEngine(2)
	const rows = 4000
	splits := []*MemorySplit{
		bigWordSplit("x", rows), // m-0: straggles on its first attempt
		bigWordSplit("y", 50),
	}
	out := &MemoryOutput{}
	job := &Job{
		Name:  "speculative",
		Conf:  NewJobConf().SetBool(ConfSpeculative, true),
		Input: &MemoryInput{SplitsList: splits},
		NewMapper: func() Mapper {
			return &stragglerMapper{slowTask: "m-0", delay: 2 * time.Millisecond}
		},
		NewReducer: func() Reducer {
			return ReducerFunc(func(k records.Record, vs Values, c Collector) error {
				var sum int64
				for v, ok := vs.Next(); ok; v, ok = vs.Next() {
					sum += v.Get("n").Int64()
				}
				return c.Collect(k, records.Make(countSchema, records.Int(sum)))
			})
		},
		Output:         out,
		NumReduceTasks: 1,
		KeySchema:      wordSchema,
		ValueSchema:    countSchema,
	}
	start := time.Now()
	res, err := e.Submit(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)

	// Counts must be exact despite the duplicate attempt.
	got := countsFrom(out)
	if got["x"] != rows || got["y"] != 50 {
		t.Errorf("counts = %v", got)
	}
	if res.Counters.Get(CtrSpeculativeMaps) == 0 {
		t.Error("no speculative attempts launched")
	}
	// Without speculation the straggler alone needs rows × 2 ms = 8 s; the
	// backup finishes in milliseconds and the straggler aborts at its next
	// poll (every 128 records ≈ 256 ms).
	if elapsed > 4*time.Second {
		t.Errorf("job took %v; speculation did not mitigate the straggler", elapsed)
	}
}

// TestSpeculationDisabledByDefault ensures no backup attempts run unless
// asked for.
func TestSpeculationDisabledByDefault(t *testing.T) {
	e := newTestEngine(2)
	out := &MemoryOutput{}
	splits := wordSplits(nil, []string{"a", "b"}, []string{"c"})
	res, err := e.Submit(context.Background(), wordCountJob(splits, out, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Get(CtrSpeculativeMaps) != 0 {
		t.Error("speculation ran without being enabled")
	}
}

// TestSpeculationIgnoredForMapOnlyJobs: a losing attempt of a map-only job
// would write duplicate output, so the engine must not speculate there.
func TestSpeculationIgnoredForMapOnlyJobs(t *testing.T) {
	e := newTestEngine(2)
	out := &MemoryOutput{}
	job := &Job{
		Name:  "maponly-spec",
		Conf:  NewJobConf().SetBool(ConfSpeculative, true),
		Input: &MemoryInput{SplitsList: []*MemorySplit{bigWordSplit("z", 300)}},
		NewMapper: func() Mapper {
			return MapperFunc(func(_, v records.Record, c Collector) error {
				return c.Collect(v, records.Record{})
			})
		},
		Output: out,
	}
	res, err := e.Submit(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Get(CtrSpeculativeMaps) != 0 {
		t.Error("map-only job speculated")
	}
	if len(out.Pairs()) != 300 {
		t.Errorf("output rows = %d, want 300", len(out.Pairs()))
	}
}

// stagedOutput is a StagedOutput over memory: each attempt counts the rows
// it writes privately, and a commit publishes that count as its task's.
type stagedOutput struct {
	mu        sync.Mutex
	published map[int]int
	commits   int
}

func (o *stagedOutput) OpenWriter(*TaskContext, int) (RecordWriter, error) {
	return nil, errors.New("map-only speculation wrote unstaged output")
}

func (o *stagedOutput) OpenStaged(_ *TaskContext, task int) (RecordWriter, func() error, func(), error) {
	w := &countingWriter{}
	commit := func() error {
		o.mu.Lock()
		defer o.mu.Unlock()
		o.published[task] = w.n
		o.commits++
		return nil
	}
	return w, commit, func() {}, nil
}

type countingWriter struct{ n int }

func (w *countingWriter) Write(_, _ records.Record) error { w.n++; return nil }
func (w *countingWriter) Close() error                    { return nil }

// TestSpeculativeMapOnlyCommitsOnce: with a StagedOutput, a map-only job
// speculates like one with reducers — the straggler's backup wins and the
// straggler abandons — and exactly one attempt per task commits its output.
func TestSpeculativeMapOnlyCommitsOnce(t *testing.T) {
	e := newTestEngine(2)
	const rows = 4000
	out := &stagedOutput{published: map[int]int{}}
	job := &Job{
		Name:  "maponly-staged-spec",
		Conf:  NewJobConf().SetBool(ConfSpeculative, true),
		Input: &MemoryInput{SplitsList: []*MemorySplit{bigWordSplit("x", rows), bigWordSplit("y", 50)}},
		NewMapper: func() Mapper {
			return &stragglerMapper{slowTask: "m-0", delay: 2 * time.Millisecond}
		},
		Output: out,
	}
	start := time.Now()
	res, err := e.Submit(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 4*time.Second {
		t.Errorf("job took %v; speculation did not mitigate the straggler", elapsed)
	}
	if res.Counters.Get(CtrSpeculativeMaps) == 0 {
		t.Error("no speculative attempts launched")
	}
	if out.commits != 2 || out.published[0] != rows || out.published[1] != 50 {
		t.Errorf("commits = %d, published = %v; want one commit per task of %d and 50 rows",
			out.commits, out.published, rows)
	}
}
