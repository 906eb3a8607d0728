package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"clydesdale/internal/colstore"
	"clydesdale/internal/mr"
	"clydesdale/internal/obs"
	"clydesdale/internal/plan"
	"clydesdale/internal/results"
)

// The §5.1 fallback: "for the rare case where the cluster nodes have little
// memory or for unusual datasets with extremely large dimension tables, one
// could reduce the memory footprint by joining with a single hash table at
// a time. A subsequent pass over the intermediate joined result can be made
// to join with the remaining dimension tables."
//
// runStagedShape implements that strategy: one map-only MapReduce job per
// join edge, each run by the star job's join runner (runJoinPass) — still
// with Clydesdale's per-node shared hash table (built from the local
// dimension cache, one task per node, JVM reuse), unlike Hive's broadcast
// mapjoin — writing each intermediate to HDFS, followed by an aggregation
// job. Memory high-water per node drops from the sum of the
// dimension tables to the largest single one.

var stagedSeq atomic.Int64

// runStagedShape executes a KindStaged physical plan — or a star plan that
// ran out of memory — from the plan's pipeline steps. It is not limited to
// star queries: snowflake edges run as additional passes probing their
// parent's carried FK, so the chooser's always-feasible staged candidate
// executes for any shape the IR can express.
func (e *Engine) runStagedShape(ctx context.Context, p *plan.Physical) (*results.ResultSet, *Report, error) {
	start := time.Now()
	sh := p.Shape
	steps := p.Steps
	if len(steps) == 0 {
		var err error
		if steps, err = sh.Linearize(); err != nil {
			return nil, nil, err
		}
	}
	if len(steps) == 0 {
		return nil, nil, fmt.Errorf("core: staged plan for %s has no joins", sh.Name)
	}

	edges := make([]plan.JoinEdge, len(steps))
	for i := range steps {
		edges[i] = steps[i].JoinEdge
	}
	dims, err := e.dimView(edges)
	if err != nil {
		return nil, nil, err
	}
	cacheDone := e.phaseSpan(ctx, obs.PhaseDimCache)
	if err := dims.cacheOnNodes(e.mr.FS(), edges); err != nil {
		cacheDone()
		return nil, nil, err
	}
	cacheDone()

	tmp := fmt.Sprintf("/tmp/clydesdale/%s-staged-%d", sh.Name, stagedSeq.Add(1))
	defer e.mr.FS().DeletePrefix(tmp)

	agg := mr.NewCounters()
	report := &Report{Query: sh.Name, Staged: true}
	// The pipeline already resolved column liveness; the first pass reads
	// Steps[0].In from the fact table, later passes the previous pass's
	// intermediate.
	curDir, curSchema := "", steps[0].In // "" means the fact table
	for i := range steps {
		st := &steps[i]
		outDir := fmt.Sprintf("%s/pass-%d", tmp, i+1)
		res, err := e.runJoinPass(ctx, fmt.Sprintf("clydesdale-staged-%s-%s", sh.Name, st.Table), sh, dims,
			edges[i:i+1], curDir, curSchema, st.Out, &colstore.RowOutput{Dir: outDir, Schema: st.Out})
		if err != nil {
			return nil, nil, fmt.Errorf("core: %s staged pass %d (%s): %w", sh.Name, i+1, st.Table, err)
		}
		agg.Merge(res.Counters)
		curDir, curSchema = outDir, st.Out
	}

	rs, res, err := e.runAggJob(ctx, "clydesdale-staged-agg-"+sh.Name, sh, curDir, curSchema)
	if err != nil {
		return nil, nil, fmt.Errorf("core: %s staged aggregation: %w", sh.Name, err)
	}
	agg.Merge(res.Counters)

	sortStart := time.Now()
	if err := sortResult(rs, sh); err != nil {
		return nil, nil, err
	}
	report.SortTime = time.Since(sortStart)
	report.Total = time.Since(start)
	report.Job = &mr.JobResult{JobID: "staged", Counters: agg, Duration: report.Total}
	report.fillScanStats(agg)
	return rs, report, nil
}
