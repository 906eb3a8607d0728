package core

import (
	"context"
	"errors"
	"fmt"

	"clydesdale/internal/colstore"
	"clydesdale/internal/plan"
	"clydesdale/internal/results"
)

// PlanStats gathers the cost model's inputs for a logical plan: fact
// cardinality from the CIF zone maps, per-table row counts and hash-table
// footprints from DimStats (the star model and the boxed mapjoin model),
// and the cluster geometry. Dimension statistics come from the driver's
// generation-keyed memo, so a repeated plan over unchanged tables decodes
// nothing.
func (e *Engine) PlanStats(l *plan.Logical) (*plan.Stats, error) {
	sh, err := plan.Decompose(l)
	if err != nil {
		return nil, err
	}
	factRows, err := colstore.TableRowCount(e.mr.FS(), e.cat.FactDir)
	if err != nil {
		return nil, err
	}
	per, err := e.DimStats(sh.Joins)
	if err != nil {
		return nil, err
	}
	tables := make(map[string]plan.TableStats, len(sh.Joins))
	for i := range sh.Joins {
		tables[sh.Joins[i].Table] = per[i]
	}
	cfg := e.mr.Cluster().Config()
	return &plan.Stats{
		FactRows:      factRows,
		Tables:        tables,
		Nodes:         len(e.mr.Cluster().Nodes()),
		MapSlots:      cfg.MapSlots,
		MemoryPerNode: cfg.MemoryPerNode,
	}, nil
}

// PlanLogical runs the cost-based chooser over a bound logical plan:
// gather stats, cost every candidate (star, staged, cascade), return the
// cheapest feasible one.
func (e *Engine) PlanLogical(l *plan.Logical) (*plan.Physical, error) {
	st, err := e.PlanStats(l)
	if err != nil {
		return nil, err
	}
	return plan.Choose(l, st)
}

// RunPlan executes a chosen physical plan: the single-pass star join (with
// the §5.1 staged fallback on memory exhaustion), the staged plan, or the
// cascading map-side join.
func (e *Engine) RunPlan(ctx context.Context, p *plan.Physical) (rs *results.ResultSet, rep *Report, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if p == nil || p.Shape == nil {
		return nil, nil, fmt.Errorf("core: RunPlan needs a physical plan with a shape")
	}
	ctx, finish := e.traceRoot(ctx, p.Shape.Name)
	defer func() { finish(err) }()
	return e.runPhysical(ctx, p)
}

// runPhysical dispatches a physical plan to its kind's executor. A star
// plan that runs out of node memory falls back to the staged plan (§5.1).
func (e *Engine) runPhysical(ctx context.Context, p *plan.Physical) (*results.ResultSet, *Report, error) {
	switch p.Kind {
	case plan.KindStaged:
		return e.runStagedShape(ctx, p)
	case plan.KindCascade:
		return e.runCascade(ctx, p)
	default:
		rs, rep, err := e.runStar(ctx, p.Shape)
		if err == nil || !errors.Is(err, ErrOOM) || ctx.Err() != nil {
			return rs, rep, err
		}
		return e.runStagedShape(ctx, p)
	}
}
