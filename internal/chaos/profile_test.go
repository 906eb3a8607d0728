package chaos_test

import (
	"context"
	"testing"

	"clydesdale/internal/chaos"
	"clydesdale/internal/cluster"
	"clydesdale/internal/core"
	"clydesdale/internal/obs"
	"clydesdale/internal/refexec"
	"clydesdale/internal/results"
	"clydesdale/internal/ssb"
)

// TestSlowDiskStragglerProfile reuses the chaos suite's slow-disk plan as a
// profiling fixture: with node-2's disk crawling and real time flowing
// (TimeScale > 0), the query profile must flag the map attempt that ran on
// node-2 as a straggler and attribute its added wall time to a work phase
// (scan/join time), not to scheduler overhead. This is the EXPLAIN ANALYZE
// acceptance path: the same report `clydesdale -explain -slow-disk` prints.
func TestSlowDiskStragglerProfile(t *testing.T) {
	cfg := cluster.Testing(4)
	cfg.TimeScale = 5 // modeled second → 5 real seconds; this query models ~ms
	e := newEnvConfig(t, cfg, 0.002)
	// Bandwidths divided by 8 on every node, as the bench harness scales
	// I/O to restore the fact-scan-to-overhead ratio of the paper's data
	// sizes. Unscaled, a map task here reads ~8 KB of fact columns: its
	// healthy read models ~0.1 ms, below the task's CPU and timer overheads,
	// so even node-2's 32x read (~10 ms real) left its task near the 2x
	// threshold under -race. The dimension-copy reads of the hash build are
	// charged at nominal speed and are unaffected.
	e.cluster.ScaleIO(8)
	ctl := chaos.New(e.cluster, e.fs, chaos.Plan{
		Name:       "straggler-profile",
		Stragglers: []chaos.SlowDisk{{Node: "node-2", Factor: 32}},
	}, e.reg)
	if err := ctl.Start(); err != nil {
		t.Fatal(err)
	}
	defer ctl.Stop()

	sink := obs.NewMemorySink()
	e.mr.SetTracer(obs.NewTracer(sink))
	// Pruning off so every partition is scanned: the slow disk must show up
	// in the fact scan, and each node gets comparable read volume.
	eng := core.New(e.mr, e.lay.Catalog(), core.Options{NoScanPruning: true})

	q, err := ssb.QueryByName("Q1.1")
	if err != nil {
		t.Fatal(err)
	}
	rs, rep, err := eng.Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refexec.RunLogical(q, e.gen.Each)
	if err != nil {
		t.Fatal(err)
	}
	if ok, why := results.Equivalent(rs, want, 1e-9); !ok {
		t.Fatalf("slow disk changed the answer: %s", why)
	}

	p, err := obs.BuildProfile(sink.Spans(), obs.ProfileOptions{
		Counters: rep.Job.Counters.Snapshot(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Orphans != 0 {
		t.Errorf("profile has %d orphans", p.Orphans)
	}
	if got, want := p.PhaseWallTotal(), p.Wall; got != want {
		t.Errorf("phase walls sum to %v, want %v", got, want)
	}

	if len(p.Stragglers) == 0 {
		t.Fatalf("no straggler flagged; task spans:\n%s", taskWalls(p))
	}
	// Scheduler phases: a straggler whose time pools here would mean the
	// report blamed queueing for a disk problem.
	scheduler := map[string]bool{
		obs.PhaseQueueWait: true,
		obs.PhaseLaunch:    true,
		obs.PhaseJVMStart:  true,
	}
	onSlowNode := false
	for _, s := range p.Stragglers {
		if s.Node == "node-2" {
			onSlowNode = true
		}
		if scheduler[s.Phase] {
			t.Errorf("straggler %s@%s attributes its time to scheduler phase %q", s.TaskID, s.Node, s.Phase)
		}
		if s.Factor < 2 {
			t.Errorf("straggler %s flagged below threshold: %.2fx", s.TaskID, s.Factor)
		}
	}
	if !onSlowNode {
		t.Errorf("no straggler on node-2 (the slow disk); flagged: %+v\ntasks:\n%s", p.Stragglers, taskWalls(p))
	}
}

// taskWalls summarizes task spans for failure messages.
func taskWalls(p *obs.Profile) string {
	out := ""
	var walk func(n *obs.ProfileNode)
	walk = func(n *obs.ProfileNode) {
		if n.Span.Name == obs.PhaseTask {
			out += "  " + n.Span.TaskID + "@" + n.Span.Node + " " + n.Span.Duration().String() + "\n"
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	if p.Root != nil {
		walk(p.Root)
	}
	return out
}
