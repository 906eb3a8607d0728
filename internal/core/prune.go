package core

import (
	"clydesdale/internal/colstore"
	"clydesdale/internal/expr"
	"clydesdale/internal/plan"
	"clydesdale/internal/records"
)

// Driver-side FK-range hint derivation for zone-map pruning. SSB fact
// predicates alone rarely refute a partition (discount, quantity, and the
// like are uniform), but dimension predicates are highly selective and the
// star join is an equality join on the dimension primary key. Scanning a
// filtered dimension gives the [min, max] range of qualifying keys, and
// BETWEEN(fact_fk, min, max) is implied by the join: a fact row whose FK
// falls outside the range cannot survive the probe. Handing these ranges to
// CIFInput.PrunePreds lets zone maps drop partitions whose FK ranges are
// disjoint — for the arrival-ordered lo_orderdate this is what turns a
// "d_year = 1993" dimension filter into whole skipped fact partitions (the
// range-pruned-reads idea of cascading map-side joins).
//
// The hints are pruning-only: they are never evaluated per row, and a hint
// that is merely a superset of the qualifying keys (ranges over sparse key
// sets, e.g. YYYYMMDD date keys) is still sound.

// The same driver-side scan also yields the exact qualifying key set, which
// feeds the second pushdown: a bloom filter over surviving keys handed to
// CIFInput.KeyFilters (semi-join filter pushdown). The hint prunes whole
// partitions; the bloom kills individual fact rows inside surviving
// partitions before their columns materialize.

// bloomMaxSelectivity gates bloom pushdown: a filter most of whose
// dimension passes the predicate can only drop the complementary fraction
// of fact rows, which doesn't pay for testing every row (e.g. the broad
// Q3.x date filter keeps ~86% of the date dimension). Filters are built
// only when qualifying keys / total keys is at or below this.
const bloomMaxSelectivity = 0.5

// dimScan is what one driver-side scan of a filtered dimension yields:
// the FK-range prune hint and the semi-join bloom filter (either may be nil
// when underivable or not worth pushing). Memoized per (fact FK,
// predicate) in the dimension's generation-keyed driver memo.
type dimScan struct {
	hint  expr.Pred
	bloom *colstore.KeyBloom
}

// scan returns the memoized scan products for one dimension, deriving
// them at most once per (table generation, fact FK, predicate): a stale
// bloom would silently drop fact rows that match rows appended since.
// Returns nil for dimensions that can yield nothing (no predicate, no
// schema, unreadable table).
func (v dimView) scan(edge *plan.JoinEdge) *dimScan {
	if edge.Pred == nil || edge.Schema == nil {
		return nil
	}
	d := v[edge.Table]
	key := edge.FK + "|" + edge.Pred.String()
	d.mu.Lock()
	ds, cached := d.scans[key]
	d.mu.Unlock()
	if !cached {
		c, err := d.open()
		if err != nil {
			return nil
		}
		ds = deriveDimScan(c, edge)
		d.mu.Lock()
		d.scans[key] = ds
		d.mu.Unlock()
	}
	return ds
}

// fkPruneHints returns one BETWEEN hint per fact-side edge (depth 1) whose
// qualifying primary keys are non-empty. Edges that cannot yield a hint (no
// predicate, non-integer key, scan error) are skipped — pruning just sees
// fewer hints. Snowflake edges are skipped too: their FK is not a fact
// column, so a hint on it could never refute a fact partition.
func (v dimView) fkPruneHints(edges []plan.JoinEdge) []expr.Pred {
	var hints []expr.Pred
	for i := range edges {
		if edges[i].Depth != 1 {
			continue
		}
		if ds := v.scan(&edges[i]); ds != nil && ds.hint != nil {
			hints = append(hints, ds.hint)
		}
	}
	return hints
}

// semiJoinFilters returns one KeyFilter per fact-side edge whose predicate is
// selective enough to pay for per-row filtering (see bloomMaxSelectivity).
// The filters are derived on the driver before the job is submitted — they
// are plain immutable state shipped with the input format, so retried,
// speculative, and failed-over task attempts all see the same filters.
func (v dimView) semiJoinFilters(edges []plan.JoinEdge) []colstore.KeyFilter {
	var filters []colstore.KeyFilter
	for i := range edges {
		d := &edges[i]
		if d.Depth != 1 {
			continue
		}
		if ds := v.scan(d); ds != nil && ds.bloom != nil {
			filters = append(filters, colstore.KeyFilter{Column: d.FK, Keys: ds.bloom})
		}
	}
	return filters
}

// deriveDimScan selects one filtered dimension's qualifying keys once,
// collecting their range (→ prune hint) and the keys themselves (→ bloom
// filter, when selective enough). Never returns nil; an empty dimScan means
// nothing was derivable.
func deriveDimScan(c *colstore.DimCopy, edge *plan.JoinEdge) *dimScan {
	ds := &dimScan{}
	rows, err := c.Select(edge.PK, edge.Pred, nil)
	if err != nil || len(rows.Keys) == 0 {
		return ds
	}
	lo, hi := rows.Keys[0], rows.Keys[0]
	for _, k := range rows.Keys {
		lo, hi = min(lo, k), max(hi, k)
	}
	ds.hint = expr.Between(expr.Col(edge.FK), records.Int(lo), records.Int(hi))
	if float64(len(rows.Keys)) <= bloomMaxSelectivity*float64(rows.Total) {
		ds.bloom = colstore.NewKeyBloom(rows.Keys, colstore.DefaultBloomBitsPerKey)
	}
	return ds
}

// factFKs lists the fact-side join keys (the depth-1 edges' FKs), the
// columns the probe needs before any selection (CIFInput.EagerColumns).
func factFKs(edges []plan.JoinEdge) []string {
	var fks []string
	for i := range edges {
		if edges[i].Depth == 1 {
			fks = append(fks, edges[i].FK)
		}
	}
	return fks
}
