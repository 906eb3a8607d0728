package plan_test

import (
	"context"
	"fmt"
	"testing"

	"clydesdale/internal/cluster"
	"clydesdale/internal/core"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/hive"
	"clydesdale/internal/mr"
	"clydesdale/internal/obs"
	"clydesdale/internal/plan"
	"clydesdale/internal/refexec"
	"clydesdale/internal/results"
	"clydesdale/internal/ssb"
)

type snowEnv struct {
	snow *ssb.Snowflake
	lay  *ssb.SnowLayout
	mr   *mr.Engine
	sink *obs.MemorySink
}

func newSnowEnv(t *testing.T, seed uint64, factRows int64) *snowEnv {
	t.Helper()
	c := cluster.New(cluster.Testing(3))
	fs := hdfs.New(c, hdfs.Options{BlockSize: 1 << 16, Seed: int64(seed)})
	snow := ssb.GenSnowflake(seed, factRows)
	lay, err := ssb.LoadSnowflake(fs, snow, "/snow")
	if err != nil {
		t.Fatal(err)
	}
	sink := obs.NewMemorySink()
	tracer := obs.NewTracer(sink)
	return &snowEnv{snow: snow, lay: lay, mr: mr.NewEngine(c, fs, mr.Options{Tracer: tracer}), sink: sink}
}

// snowStats derives the chooser's inputs from the dataset via the engine's
// own stat gatherer.
func (e *snowEnv) stats(t *testing.T, eng *core.Engine, l *plan.Logical) *plan.Stats {
	t.Helper()
	st, err := eng.PlanStats(l)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestSnowflakePropertyAllStrategiesAgree is the planner's property test:
// random snowflake schemas and random queries over them, executed through
// every lowering the chooser considers — the cascade, the core staged
// plan, and the Hive baseline with both join strategies — must all equal
// the logical-plan oracle. Star joins only qualify for depth-1 plans and
// are covered where the chooser deems them feasible.
func TestSnowflakePropertyAllStrategiesAgree(t *testing.T) {
	for _, seed := range []uint64{7, 23, 101} {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			e := newSnowEnv(t, seed, 3000)
			eng := core.New(e.mr, e.lay.Catalog(e.snow), core.Options{})
			for qi := int64(0); qi < 3; qi++ {
				l := e.snow.RandomSnowQuery(qi)
				want, err := refexec.RunLogical(l, e.snow.Each)
				if err != nil {
					t.Fatalf("q%d oracle: %v", qi, err)
				}
				cands, err := plan.Candidates(l, e.stats(t, eng, l))
				if err != nil {
					t.Fatalf("q%d candidates: %v", qi, err)
				}
				ranFeasible := 0
				for _, p := range cands {
					if !p.Feasible {
						continue
					}
					ranFeasible++
					got, rep, err := eng.RunPlan(context.Background(), p)
					if err != nil {
						t.Fatalf("q%d %s: %v", qi, p.Kind, err)
					}
					if p.Kind == plan.KindCascade && (!rep.Cascade || rep.CascadePasses < 2) {
						t.Errorf("q%d cascade report: ran=%v passes=%d", qi, rep.Cascade, rep.CascadePasses)
					}
					if ok, why := results.Equivalent(got, want, 1e-9); !ok {
						t.Errorf("q%d %s disagrees with oracle: %s\ngot:\n%s\nwant:\n%s",
							qi, p.Kind, why, got, want)
					}
				}
				if ranFeasible == 0 {
					t.Errorf("q%d: no feasible candidate", qi)
				}

				// The Hive baseline lowers the same IR; both join
				// strategies must agree too.
				for _, strat := range []hive.JoinStrategy{hive.Repartition, hive.MapJoin} {
					heng := hive.New(e.mr, e.lay.RCCatalog(e.snow), hive.Options{Strategy: strat})
					got, _, err := heng.Execute(context.Background(), l)
					if err != nil {
						t.Fatalf("q%d hive %s: %v", qi, strat, err)
					}
					if ok, why := results.Equivalent(got, want, 1e-9); !ok {
						t.Errorf("q%d hive %s disagrees with oracle: %s", qi, strat, why)
					}
				}
			}
		})
	}
}

// TestCascadeZeroIntermediateReduce executes a snowflake query as a
// cascade and verifies, from the job span tree, the defining property: the
// map-side join jobs (the ones that build hash tables) run with zero
// shuffle, sort, or reduce work between them — the co-partitioned bucket
// output feeds the next join's map side directly.
func TestCascadeZeroIntermediateReduce(t *testing.T) {
	e := newSnowEnv(t, 7, 3000)
	eng := core.New(e.mr, e.lay.Catalog(e.snow), core.Options{})
	l := e.snow.RandomSnowQuery(0)
	st := e.stats(t, eng, l)
	cands, err := plan.Candidates(l, st)
	if err != nil {
		t.Fatal(err)
	}
	var cascade *plan.Physical
	for _, p := range cands {
		if p.Kind == plan.KindCascade && p.Feasible {
			cascade = p
		}
	}
	if cascade == nil {
		t.Fatal("no feasible cascade candidate for the depth-2 chain")
	}

	want, err := refexec.RunLogical(l, e.snow.Each)
	if err != nil {
		t.Fatal(err)
	}
	got, rep, err := eng.RunPlan(context.Background(), cascade)
	if err != nil {
		t.Fatal(err)
	}
	if ok, why := results.Equivalent(got, want, 1e-9); !ok {
		t.Fatalf("cascade disagrees with oracle: %s", why)
	}
	if !rep.Cascade || rep.CascadePasses < 2 {
		t.Fatalf("cascade report: ran=%v passes=%d, want >= 2 passes", rep.Cascade, rep.CascadePasses)
	}

	// Span-tree check: join jobs are the ones whose tasks built hash
	// tables. At least two must exist (the head star pass and one chained
	// map-side join), and none may contain shuffle/sort/reduce spans.
	spans := e.sink.Spans()
	joinJobs := map[string]bool{}
	for _, s := range spans {
		if s.Name == obs.PhaseHashBuild && s.Job != "" {
			joinJobs[s.Job] = true
		}
	}
	if len(joinJobs) < 2 {
		t.Fatalf("found %d join jobs with hash builds, want >= 2 (cascade = map-side join feeding map-side join)", len(joinJobs))
	}
	for _, s := range spans {
		if !joinJobs[s.Job] {
			continue
		}
		switch s.Name {
		case obs.PhaseShuffle, obs.PhaseSort, obs.PhaseReduce:
			t.Errorf("join job %s ran a %s phase; cascade joins must be pure map-side", s.Job, s.Name)
		}
	}
}
