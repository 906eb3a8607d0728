package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"clydesdale/internal/colstore"
	"clydesdale/internal/expr"
	"clydesdale/internal/mr"
	"clydesdale/internal/obs"
	"clydesdale/internal/plan"
	"clydesdale/internal/records"
	"clydesdale/internal/results"
)

// The §5.1 fallback: "for the rare case where the cluster nodes have little
// memory or for unusual datasets with extremely large dimension tables, one
// could reduce the memory footprint by joining with a single hash table at
// a time. A subsequent pass over the intermediate joined result can be made
// to join with the remaining dimension tables."
//
// runStagedShape implements that strategy: one map-only MapReduce job per
// join edge — still with Clydesdale's per-node shared hash table (built
// from the local dimension cache, one task per node, JVM reuse), unlike
// Hive's broadcast mapjoin — writing each intermediate to HDFS, followed by
// an aggregation job. Memory high-water per node drops from the sum of the
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
	cacheDone := e.phaseSpan(ctx, obs.PhaseDimCache)
	if _, err := EnsureCatalogCachedFor(e.mr.FS(), e.cat, edges); err != nil {
		cacheDone()
		return nil, nil, err
	}
	cacheDone()

	tmp := fmt.Sprintf("/tmp/clydesdale/%s-staged-%d", sh.Name, stagedSeq.Add(1))
	defer e.mr.FS().DeletePrefix(tmp)

	// The pipeline already resolved column liveness; the first pass reads
	// Steps[0].In from CIF (or the full fact schema on row storage — the
	// pruned Out schemas still apply, carry indexes are matched by name).
	curSchema := steps[0].In
	if !e.feats.ColumnarStorage {
		s, err := e.cat.FactSchema.Project(e.cat.FactSchema.Names()...)
		if err != nil {
			return nil, nil, err
		}
		curSchema = s
	}

	agg := mr.NewCounters()
	report := &Report{Query: sh.Name, Staged: true}
	var curDir string // "" means the fact table

	for i := range steps {
		st := &steps[i]
		outDir := fmt.Sprintf("%s/pass-%d", tmp, i+1)
		res, err := e.runStagedJoinPass(ctx, sh, edges, &edges[i], curDir, curSchema, outDir, st.Out, i == 0)
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

// runStagedJoinPass joins the current intermediate (or the fact table) with
// one edge's table as a map-only job; edges are the plan's join edges,
// whose fact-side FKs drive the fact pass's prune hints and eager reads.
func (e *Engine) runStagedJoinPass(ctx context.Context, sh *plan.Shape, edges []plan.JoinEdge, edge *plan.JoinEdge, inDir string, inSchema *records.Schema, outDir string, outSchema *records.Schema, firstPass bool) (*mr.JobResult, error) {
	var input mr.InputFormat
	if inDir == "" {
		cols := inSchema.Names()
		// Zone-map pruning applies to the fact-table pass only; the staged
		// mappers read row-at-a-time, so late materialization never engages.
		var hints []expr.Pred
		if !e.opts.NoScanPruning {
			hints = e.fkPruneHints(edges)
		}
		// Only the first pass scans the fact table; later passes read the
		// previous pass's intermediate, which nothing rolls into. Pinning
		// here still gives the query one fact state end to end.
		snap, err := e.snaps.Acquire(e.cat.FactDir)
		if err != nil {
			return nil, err
		}
		defer snap.Release()
		input = &colstore.CIFInput{
			Dir: e.cat.FactDir, Columns: cols, Schema: e.cat.FactSchema, BlockRows: e.opts.BlockRows,
			Snapshot: snap.Parts,
			Pred:     sh.FactPred, PrunePreds: hints, EagerColumns: factFKs(edges),
			DisablePruning: e.opts.NoScanPruning, DisableLateMat: true,
		}
	} else {
		input = &colstore.RowInput{Dir: inDir, Schema: inSchema}
	}

	var factPred expr.RowPred
	if firstPass && sh.FactPred != nil {
		p, err := expr.CompilePred(sh.FactPred, inSchema)
		if err != nil {
			return nil, err
		}
		factPred = p
	}
	fkIdx := inSchema.Index(edge.FK)
	if fkIdx < 0 {
		return nil, fmt.Errorf("core: staged input lacks FK %s", edge.FK)
	}
	var carryIdx []int
	for i := 0; i < outSchema.Len(); i++ {
		name := outSchema.Field(i).Name
		if j := inSchema.Index(name); j >= 0 {
			carryIdx = append(carryIdx, j)
		}
	}

	dimDir, err := e.cat.DimDir(edge.Table)
	if err != nil {
		return nil, err
	}
	eng := e
	// One table group per pass: all of the pass's mappers share it, so each
	// node builds this dimension's table once even when tasks run
	// concurrently.
	group := &nodeTableGroup{}

	cfg := e.mr.Cluster().Config()
	conf := mr.NewJobConf()
	if e.feats.MultiThreaded {
		conf.SetInt(mr.ConfTaskMemory, cfg.MemoryPerNode)
		conf.SetBool(mr.ConfJVMReuse, true)
		conf.SetInt(mr.ConfMultiSplitPack, int64(e.opts.MultiSplitPack))
		conf.SetInt(mr.ConfMapThreads, int64(cfg.MapSlots))
	}

	job := &mr.Job{
		Name:   fmt.Sprintf("clydesdale-staged-%s-%s", sh.Name, edge.Table),
		Conf:   conf,
		Input:  input,
		Output: &colstore.RowOutput{Dir: outDir, Schema: outSchema},
		NewMapper: func() mr.Mapper {
			return &stagedJoinMapper{
				eng: eng, edge: edge, dimDir: dimDir, group: group,
				factPred: factPred, fkIdx: fkIdx, carryIdx: carryIdx, outSchema: outSchema,
			}
		},
		NumReduceTasks: 0,
	}
	return e.mr.Submit(ctx, job)
}

// stagedJoinMapper probes one per-node shared dimension hash table.
type stagedJoinMapper struct {
	eng       *Engine
	edge      *plan.JoinEdge
	dimDir    string
	group     *nodeTableGroup
	factPred  expr.RowPred
	fkIdx     int
	carryIdx  []int
	outSchema *records.Schema

	hash *DimHashTable
}

// Setup implements mr.Mapper: fetch or build the node's shared table for
// this single dimension. The pass-wide table group guarantees one build per
// node even for concurrently launched tasks, as in the main path.
func (m *stagedJoinMapper) Setup(ctx *mr.TaskContext) error {
	build := func() (*DimHashTable, error) {
		start := time.Now()
		h, err := BuildDimHashTable(ctx.FS, ctx.Node(), m.dimDir, m.edge)
		if err != nil {
			return nil, err
		}
		ctx.Counters.Add(CtrHashTablesBuilt, 1)
		ctx.Counters.Add(CtrHashBuildNanos, time.Since(start).Nanoseconds())
		return h, nil
	}
	if !m.eng.feats.MultiThreaded {
		h, err := build()
		if err != nil {
			return err
		}
		m.hash = h
		return ctx.ReserveMemory(h.MemBytes)
	}
	hts, reused, err := m.group.do(ctx.Node().ID(), func() ([]*DimHashTable, error) {
		h, err := build()
		if err != nil {
			return nil, err
		}
		return []*DimHashTable{h}, nil
	})
	if err != nil {
		return err
	}
	if reused {
		ctx.Counters.Add(CtrHashReuses, 1)
	}
	m.hash = hts[0]
	return ctx.ReserveMemory(m.hash.MemBytes)
}

// Map implements mr.Mapper.
func (m *stagedJoinMapper) Map(_, v records.Record, out mr.Collector) error {
	if m.factPred != nil && !m.factPred(v) {
		return nil
	}
	aux, ok := m.hash.Probe(v.At(m.fkIdx).Int64())
	if !ok {
		return nil
	}
	row := make([]records.Value, 0, len(m.carryIdx)+len(aux))
	for _, ix := range m.carryIdx {
		row = append(row, v.At(ix))
	}
	row = append(row, aux...)
	return out.Collect(records.Record{}, records.Make(m.outSchema, row...))
}

// Cleanup implements mr.Mapper.
func (m *stagedJoinMapper) Cleanup(mr.Collector) error { return nil }
