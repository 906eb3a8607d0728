package core_test

import (
	"context"
	"testing"

	"clydesdale/internal/cluster"
	"clydesdale/internal/core"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/mr"
	"clydesdale/internal/plan"
	"clydesdale/internal/refexec"
	"clydesdale/internal/results"
	"clydesdale/internal/ssb"
)

// TestStagedMatchesReference runs every SSB query through the §5.1 staged
// plan and checks the answers against the reference executor.
func TestStagedMatchesReference(t *testing.T) {
	e := newEnv(t, 3, 0.002)
	eng := e.engine(core.Options{})
	for _, q := range ssb.Queries() {
		rs, rep, err := runStaged(eng, q)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		want, err := refexec.RunLogical(q, e.gen.Each)
		if err != nil {
			t.Fatal(err)
		}
		if ok, why := results.Equivalent(rs, want, 1e-9); !ok {
			t.Errorf("%s staged: %s", q.Name, why)
		}
		if !rep.Staged || rep.Job.Counters.Get(core.CtrHashTablesBuilt) == 0 {
			t.Errorf("%s: staged=%v, %d hash builds recorded", q.Name, rep.Staged,
				rep.Job.Counters.Get(core.CtrHashTablesBuilt))
		}
	}
}

// runStaged runs q through the staged executor: its fixed star lowering
// with the kind switched to KindStaged.
func runStaged(eng *core.Engine, q *plan.Logical) (*results.ResultSet, *core.Report, error) {
	p, err := core.StarPlan(q)
	if err != nil {
		return nil, nil, err
	}
	p.Kind = plan.KindStaged
	return eng.RunPlan(context.Background(), p)
}

// TestStagedSurvivesTightMemory is the point of §5.1: a node budget that
// holds one dimension table but not all of them together fails the
// single-job plan and succeeds staged.
func TestStagedSurvivesTightMemory(t *testing.T) {
	gen := ssb.NewGenerator(0.002, 42)
	q, err := ssb.QueryByName("Q4.1") // four dimensions
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.StarPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	per, err := core.EstimateDimStats(p.Shape.Joins, gen.Each)
	if err != nil {
		t.Fatal(err)
	}
	var sum, max int64
	for _, ts := range per {
		sum += ts.HashBytes
		if ts.HashBytes > max {
			max = ts.HashBytes
		}
	}
	if sum <= max {
		t.Fatal("need multiple non-trivial dims for this test")
	}
	// Budget: the largest single table fits, the sum does not.
	budget := max + (sum-max)/4
	c := cluster.New(cluster.Config{Workers: 2, MapSlots: 2, ReduceSlots: 1, MemoryPerNode: budget})
	fs := hdfs.New(c, hdfs.Options{BlockSize: 1 << 16, Seed: 13})
	lay, err := ssb.Load(fs, gen, "/ssb", ssb.LoadOptions{SkipRC: true, PartitionRows: 1000})
	if err != nil {
		t.Fatal(err)
	}
	eng := core.New(mr.NewEngine(c, fs, mr.Options{}), lay.Catalog(), core.Options{})

	// The single-job plan OOMs, so Run falls back to the staged plan.
	rs, rep, err := eng.Run(context.Background(), q)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !rep.Staged {
		t.Fatal("expected the single-job plan to OOM and Run to fall back to staged")
	}
	want, _ := refexec.RunLogical(q, gen.Each)
	if ok, why := results.Equivalent(rs, want, 1e-9); !ok {
		t.Errorf("staged fallback under pressure: %s", why)
	}

	// The staged plan, run directly, completes with correct answers.
	rs2, _, err := runStaged(eng, q)
	if err != nil {
		t.Fatalf("staged: %v", err)
	}
	if ok, why := results.Equivalent(rs2, want, 1e-9); !ok {
		t.Errorf("staged under pressure: %s", why)
	}
	// Memory fully released.
	for _, n := range c.Nodes() {
		if used := n.MemoryUsed(); used != 0 {
			t.Errorf("%s leaked %d bytes", n.ID(), used)
		}
	}
	// Intermediates cleaned up.
	if files := fs.List("/tmp/clydesdale/"); len(files) != 0 {
		t.Errorf("leftover staged intermediates: %v", files)
	}
}

// TestRunPrefersSinglePass checks the fast path is used when memory
// suffices.
func TestRunPrefersSinglePass(t *testing.T) {
	e := newEnv(t, 2, 0.002)
	eng := e.engine(core.Options{})
	q, _ := ssb.QueryByName("Q2.1")
	_, rep, err := eng.Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Staged {
		t.Error("should not stage with ample memory")
	}
}
