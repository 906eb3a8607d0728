package core

import (
	"fmt"

	"clydesdale/internal/expr"
	"clydesdale/internal/plan"
	"clydesdale/internal/records"
)

// BuildDimHashTableFromRows is the row-at-a-time build the column-major
// copy replaced, kept as the reference for the equivalence test and the
// baseline of BenchmarkDimHashBuild: every row decoded whole from the wire
// encoding (records.AppendRecord), the predicate evaluated on the boxed
// record, and the table grown from the minimum capacity — which ends where
// dimTableCapacity says. (The old build started from a 64-entry hint, so a
// table of fewer than 90 entries kept 128 slots, more than the estimate.)
func BuildDimHashTableFromRows(edge *plan.JoinEdge, data []byte) (*DimHashTable, error) {
	schema := edge.Schema
	var pred expr.RowPred
	if edge.Pred != nil {
		p, err := expr.CompilePred(edge.Pred, schema)
		if err != nil {
			return nil, err
		}
		pred = p
	}
	pkIx := schema.Index(edge.PK)
	if pkIx < 0 {
		return nil, fmt.Errorf("no column %s", edge.PK)
	}
	auxIx := make([]int, len(edge.Aux))
	for i, a := range edge.Aux {
		auxIx[i] = schema.MustIndex(a)
	}
	h := newDimHashTable(edge.Table, len(auxIx), 0)
	aux := make([]records.Value, len(auxIx))
	for pos := 0; pos < len(data); {
		rec, n, err := records.DecodeRecord(data[pos:], schema)
		if err != nil {
			return nil, err
		}
		pos += n
		if pred != nil && !pred(rec) {
			continue
		}
		for i, ix := range auxIx {
			aux[i] = rec.At(ix)
		}
		h.insert(rec.At(pkIx).Int64(), aux)
	}
	h.finalize()
	return h, nil
}
