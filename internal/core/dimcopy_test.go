package core_test

import (
	"testing"

	"clydesdale/internal/cluster"
	"clydesdale/internal/core"
	"clydesdale/internal/expr"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/mr"
	"clydesdale/internal/plan"
	"clydesdale/internal/records"
	"clydesdale/internal/ssb"
)

// TestDimCopyBuildsMatchRowBuilds holds every hash table built from a
// node's column-major copy to the row-at-a-time build over the generator's
// rows, for every edge of the 13 SSB queries and of the generated
// snowflake's queries: same entry count, same aux values per key, and the
// same MemBytes — which EstimateDimStats and Engine.DimStats must both
// predict exactly.
func TestDimCopyBuildsMatchRowBuilds(t *testing.T) {
	e := newEnv(t, 2, 0.002)
	var ssbShapes []*plan.Shape
	for _, q := range ssb.Queries() {
		ssbShapes = append(ssbShapes, decompose(t, q))
	}
	checkEdges(t, e.fs, e.cluster.Nodes()[0], e.engine(core.Options{}), e.lay.Catalog(), ssbShapes, e.gen.Each)

	c := cluster.New(cluster.Testing(2))
	fs := hdfs.New(c, hdfs.Options{BlockSize: 1 << 16, Seed: 9})
	snow := ssb.GenSnowflake(42, 2000)
	lay, err := ssb.LoadSnowflake(fs, snow, "/snow")
	if err != nil {
		t.Fatal(err)
	}
	var snowShapes []*plan.Shape
	for qi := int64(0); qi < 8; qi++ {
		snowShapes = append(snowShapes, decompose(t, snow.RandomSnowQuery(qi)))
	}
	cat := lay.Catalog(snow)
	eng := core.New(mr.NewEngine(c, fs, mr.Options{}), cat, core.Options{})
	checkEdges(t, fs, c.Nodes()[0], eng, cat, snowShapes, snow.Each)
}

func decompose(t *testing.T, l *plan.Logical) *plan.Shape {
	t.Helper()
	sh, err := plan.Decompose(l)
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

func checkEdges(t *testing.T, fs *hdfs.FileSystem, node *cluster.Node, eng *core.Engine, cat *core.Catalog, shapes []*plan.Shape, each func(string, func(records.Record) error) error) {
	t.Helper()
	if _, err := core.EnsureCatalogCached(fs, cat); err != nil {
		t.Fatal(err)
	}
	edges := 0
	for _, sh := range shapes {
		est, err := core.EstimateDimStats(sh.Joins, each)
		if err != nil {
			t.Fatal(err)
		}
		stored, err := eng.DimStats(sh.Joins)
		if err != nil {
			t.Fatal(err)
		}
		for i := range sh.Joins {
			edge := &sh.Joins[i]
			name := sh.Name + "/" + edge.Table
			var wire []byte
			if err := each(edge.Table, func(r records.Record) error {
				wire = records.AppendRecord(wire, r)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			want, err := core.BuildDimHashTableFromRows(edge, wire)
			if err != nil {
				t.Fatal(err)
			}
			dir, err := cat.DimDir(edge.Table)
			if err != nil {
				t.Fatal(err)
			}
			got, err := core.BuildDimHashTable(fs, node, dir, edge)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got.Len() != want.Len() || got.MemBytes != want.MemBytes {
				t.Fatalf("%s: len %d, MemBytes %d; row build len %d, MemBytes %d",
					name, got.Len(), got.MemBytes, want.Len(), want.MemBytes)
			}
			if est[i].HashBytes != got.MemBytes || stored[i] != est[i] {
				t.Fatalf("%s: EstimateDimStats %+v, DimStats %+v, MemBytes %d", name, est[i], stored[i], got.MemBytes)
			}
			pk := edge.Schema.MustIndex(edge.PK)
			var pred expr.RowPred
			if edge.Pred != nil {
				if pred, err = expr.CompilePred(edge.Pred, edge.Schema); err != nil {
					t.Fatal(err)
				}
			}
			if err := each(edge.Table, func(r records.Record) error {
				k := r.At(pk).Int64()
				wantAux, wantOK := want.Probe(k)
				gotAux, gotOK := got.Probe(k)
				if gotOK != wantOK || wantOK != (pred == nil || pred(r)) {
					t.Fatalf("%s: key %d present %v, row build %v", name, k, gotOK, wantOK)
				}
				for j := range wantAux {
					if !gotAux[j].Equal(wantAux[j]) || gotAux[j].Kind() != wantAux[j].Kind() {
						t.Fatalf("%s: key %d aux %v, row build %v", name, k, gotAux, wantAux)
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			edges++
		}
	}
	if edges == 0 {
		t.Fatal("no edges checked")
	}
}
