package core_test

import (
	"context"
	"testing"

	"clydesdale/internal/core"
	"clydesdale/internal/results"
	"clydesdale/internal/ssb"
)

// TestPruningOracleAllQueries is the zone-map soundness oracle: every SSB
// query must return identical results with scan pruning and late
// materialization enabled and disabled — the optimizations may only avoid
// work, never change answers. It also pins that the selective date-filtered
// queries actually prune partitions (the generator's arrival-ordered
// lo_orderdate gives partitions tight date-key ranges, and the FK-range
// hints derived from dimension predicates refute the out-of-range ones).
func TestPruningOracleAllQueries(t *testing.T) {
	e := newEnv(t, 3, 0.002)
	opt := e.engine(core.Options{})
	base := e.engine(core.Options{NoScanPruning: true, NoLateMaterialization: true})

	mustPrune := map[string]bool{"Q1.1": true, "Q3.4": true}
	var totalPruned int64
	for _, q := range ssb.Queries() {
		got, rep, err := opt.Run(context.Background(), q)
		if err != nil {
			t.Fatalf("%s optimized: %v", q.Name, err)
		}
		want, _, err := base.Run(context.Background(), q)
		if err != nil {
			t.Fatalf("%s baseline: %v", q.Name, err)
		}
		if ok, why := results.Equivalent(got, want, 1e-9); !ok {
			t.Errorf("%s: pruned and unpruned runs disagree: %s", q.Name, why)
		}
		totalPruned += rep.PartitionsPruned
		if mustPrune[q.Name] && rep.PartitionsPruned == 0 {
			t.Errorf("%s: expected zone maps to prune partitions, pruned 0", q.Name)
		}
		if rep.PartitionsPruned > 0 && rep.BytesSkipped == 0 {
			t.Errorf("%s: pruned %d partitions but skipped 0 bytes", q.Name, rep.PartitionsPruned)
		}
	}
	if totalPruned == 0 {
		t.Error("no SSB query pruned any partition")
	}
}

// TestCompressedExecutionOracle is the soundness oracle for the
// compressed-execution paths: every SSB query — as the star job and as its
// staged plan — and every cascade candidate of the generated snowflake must
// return identical results with code-space predicates and bloom pushdown
// enabled, each disabled alone, and both disabled. It also pins that the
// paths actually fire on every executor that scans the fact table — bloom
// filters kill fact rows on the selective join-heavy queries and the probe
// answers rows out of dictionary side tables — so the oracle cannot rot
// into comparing a feature against itself.
func TestCompressedExecutionOracle(t *testing.T) {
	ablations := map[string]core.Options{
		"no-code-preds": {NoCodeSpacePreds: true},
		"no-bloom":      {NoBloomPushdown: true},
		"neither":       {NoCodeSpacePreds: true, NoBloomPushdown: true},
	}
	type runFn func(*core.Engine) (*results.ResultSet, *core.Report, error)
	// oracle runs one plan with every path on and under each ablation,
	// checks the answers agree and the ablated paths stay off, and returns
	// the optimized run.
	oracle := func(label string, engines map[string]*core.Engine, run runFn) (*results.ResultSet, *core.Report) {
		t.Helper()
		got, rep, err := run(engines[""])
		if err != nil {
			t.Fatalf("%s optimized: %v", label, err)
		}
		for name, opts := range ablations {
			want, wrep, err := run(engines[name])
			if err != nil {
				t.Fatalf("%s %s: %v", label, name, err)
			}
			if ok, why := results.Equivalent(got, want, 1e-9); !ok {
				t.Errorf("%s: optimized and %s runs disagree: %s", label, name, why)
			}
			if opts.NoBloomPushdown && wrep.RowsBloomSkipped != 0 {
				t.Errorf("%s: NoBloomPushdown still bloom-skipped %d rows", label, wrep.RowsBloomSkipped)
			}
			if n := wrep.Job.Counters.Get(core.CtrCodeProbeRows); opts.NoCodeSpacePreds && n != 0 {
				t.Errorf("%s: NoCodeSpacePreds still code-probed %d rows", label, n)
			}
		}
		return got, rep
	}
	enginesFor := func(engine func(core.Options) *core.Engine) map[string]*core.Engine {
		m := map[string]*core.Engine{"": engine(core.Options{})}
		for name, opts := range ablations {
			m[name] = engine(opts)
		}
		return m
	}
	type tally struct{ bloom, side, codeProbe int64 }
	add := func(tl *tally, rep *core.Report) {
		tl.bloom += rep.RowsBloomSkipped
		tl.side += rep.Job.Counters.Get(core.CtrCodeSideTables)
		tl.codeProbe += rep.Job.Counters.Get(core.CtrCodeProbeRows)
	}

	e := newEnv(t, 3, 0.002)
	engines := enginesFor(e.engine)
	mustBloom := map[string]bool{"Q2.1": true, "Q2.2": true}
	var star, staged tally
	for _, q := range ssb.Queries() {
		q := q
		_, rep := oracle(q.Name, engines, func(eng *core.Engine) (*results.ResultSet, *core.Report, error) {
			return eng.Run(context.Background(), q)
		})
		add(&star, rep)
		if mustBloom[q.Name] && rep.RowsBloomSkipped == 0 {
			t.Errorf("%s: expected bloom pushdown to skip rows, skipped 0", q.Name)
		}
		_, rep = oracle(q.Name+" staged", engines, func(eng *core.Engine) (*results.ResultSet, *core.Report, error) {
			return runStaged(eng, q)
		})
		add(&staged, rep)
		if mustBloom[q.Name] && rep.RowsBloomSkipped == 0 {
			t.Errorf("%s staged: expected bloom pushdown to skip rows, skipped 0", q.Name)
		}
	}

	se := newSnowEnv(t)
	snowEngines := enginesFor(se.engine)
	var casc tally
	for _, c := range se.cascades(t, snowEngines[""], 3) {
		c := c
		got, rep := oracle(c.name+" cascade", snowEngines, func(eng *core.Engine) (*results.ResultSet, *core.Report, error) {
			return eng.RunPlan(context.Background(), c.plan)
		})
		if ok, why := results.Equivalent(got, c.want, 1e-9); !ok {
			t.Errorf("%s cascade disagrees with the reference: %s", c.name, why)
		}
		add(&casc, rep)
	}

	for label, tl := range map[string]tally{"star": star, "staged": staged, "cascade": casc} {
		if tl.bloom == 0 {
			t.Errorf("%s: no plan bloom-skipped any row", label)
		}
		if tl.side == 0 || tl.codeProbe == 0 {
			t.Errorf("%s: code-space probe never fired: side_tables=%d code_probe_rows=%d", label, tl.side, tl.codeProbe)
		}
	}
}
