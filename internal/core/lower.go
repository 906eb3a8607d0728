package core

import (
	"fmt"

	"clydesdale/internal/plan"
)

// StarPlan lowers a bound logical plan to the physical plan Engine.Run
// executes: the single-pass star join, with no cost-based choice, so Run
// stays deterministic and free of driver-side statistics scans. Steps stay
// empty — the star executor reads the shape, and the staged fallback
// linearizes it if it runs. A snowflake edge (depth > 1) cannot probe the
// fact stream directly and returns an error; snowflake plans go through
// PlanLogical and RunPlan instead.
func StarPlan(l *plan.Logical) (*plan.Physical, error) {
	sh, err := plan.Decompose(l)
	if err != nil {
		return nil, err
	}
	if err := requireStar(sh); err != nil {
		return nil, err
	}
	return &plan.Physical{Shape: sh, Kind: plan.KindStar, Feasible: true}, nil
}

// requireStar rejects shapes the single-pass star join cannot execute.
func requireStar(sh *plan.Shape) error {
	for i := range sh.Joins {
		if e := &sh.Joins[i]; e.Depth != 1 {
			return fmt.Errorf("core: %s joins through %s (depth %d); a star query cannot express snowflake edges", e.Table, e.Parent, e.Depth)
		}
	}
	return nil
}

// QueryFromLogical checks that a bound logical plan is a pure star (the
// shape Engine.Run and serve.Session.Query execute) and returns it
// unchanged. Its only caller is the frozen benchmark adapter
// (perfbench/adapter.go), which predates Session.Query taking the plan
// directly; new code passes the plan straight through.
func QueryFromLogical(l *plan.Logical) (*plan.Logical, error) {
	if _, err := StarPlan(l); err != nil {
		return nil, err
	}
	return l, nil
}
