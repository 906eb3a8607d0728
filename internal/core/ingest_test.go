package core_test

import (
	"context"
	"testing"

	"clydesdale/internal/colstore"
	"clydesdale/internal/core"
	"clydesdale/internal/plan"
	"clydesdale/internal/records"
	"clydesdale/internal/refexec"
	"clydesdale/internal/results"
	"clydesdale/internal/sql"
	"clydesdale/internal/ssb"
)

// TestRollInInvalidatesDerivedScanState is the regression test for the
// stale-pushdown bug: the engine memoizes the FK-range prune hint and
// semi-join bloom derived from a filtered dimension scan, and the node-local
// dimension copies feed every hash-table build. Before the fix, rolling new
// rows into a dimension left both caches holding pre-roll-in state — the
// stale hint pruned every new fact partition and the stale bloom dropped
// every new fact row, so queries silently returned the old answer forever.
// After the invalidation fan-out (DropDimCached + Engine.InvalidateTable)
// the very next query must see the new rows.
func TestRollInInvalidatesDerivedScanState(t *testing.T) {
	e := newEnv(t, 3, 0.002)

	factSchema := records.NewSchema(
		records.F("f_fk", records.KindInt64),
		records.F("f_m", records.KindInt64),
	)
	dimSchema := records.NewSchema(
		records.F("d_pk", records.KindInt64),
		records.F("d_x", records.KindString),
	)
	dimRow := func(pk int64, x string) records.Record {
		return records.Make(dimSchema, records.Int(pk), records.Str(x))
	}
	factRow := func(fk int64) records.Record {
		return records.Make(factSchema, records.Int(fk), records.Int(fk))
	}

	// Dimension: keys 1..8, "hot" on 1..4 — exactly half, within
	// bloomMaxSelectivity, so the engine derives both pushdowns: the range
	// hint BETWEEN(f_fk, 1, 4) and a bloom over {1..4}.
	if _, err := colstore.WriteRowTable(e.fs, "/star/d", dimSchema, func(emit func(records.Record) error) error {
		for pk := int64(1); pk <= 8; pk++ {
			x := "hot"
			if pk > 4 {
				x = "cold"
			}
			if err := emit(dimRow(pk, x)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Fact: one row per key 1..8, measure = key, in small partitions so the
	// rolled-in batch later lands in its own partitions with its own zone
	// maps — the state a stale hint would prune wholesale.
	if _, err := colstore.WriteCIFTable(e.fs, "/star/f", factSchema, 4, func(emit func(records.Record) error) error {
		for fk := int64(1); fk <= 8; fk++ {
			if err := emit(factRow(fk)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	cat := &core.Catalog{
		FactName:   "f",
		FactDir:    "/star/f",
		FactSchema: factSchema,
		DimDirs:    map[string]string{"d": "/star/d"},
		DimSchemas: map[string]*records.Schema{"d": dimSchema},
	}
	eng := core.New(e.mr, cat, core.Options{})
	q, err := sql.Parse("SELECT SUM(f_m) AS total FROM f, d WHERE f_fk = d_pk AND d_x = 'hot'", cat)
	if err != nil {
		t.Fatal(err)
	}
	q.Name = "hot-sum"
	sum := func() float64 {
		t.Helper()
		rs, _, err := eng.Run(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs.Rows) != 1 {
			t.Fatalf("result = %s", rs)
		}
		return rs.Rows[0].At(0).Float64()
	}

	// Pre-roll-in: hot keys {1..4}, total 1+2+3+4. This run populates the
	// hint memo, the bloom, and every node's local dimension copy.
	if got := sum(); got != 10 {
		t.Fatalf("pre-roll-in total = %v, want 10", got)
	}

	// Roll in: dimension keys 9..12 (all hot) and matching fact rows. A
	// stale bloom {1..4} would drop the new fact rows; a stale hint [1,4]
	// would prune their partitions before the bloom even ran; a stale
	// node-local dimension copy would build hash tables missing 9..12.
	if _, err := colstore.AppendRowTable(e.fs, "/star/d", func(emit func(records.Record) error) error {
		for pk := int64(9); pk <= 12; pk++ {
			if err := emit(dimRow(pk, "hot")); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.Snapshots().RollIn("/star/f", 4, func(emit func(records.Record) error) error {
		for fk := int64(9); fk <= 12; fk++ {
			if err := emit(factRow(fk)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// The invalidation fan-out under test.
	if n := core.DropDimCached(e.cluster, "/star/d"); n == 0 {
		t.Fatal("no node-local dimension copies to drop — test exercised nothing")
	}
	if n := eng.InvalidateTable("d"); n == 0 {
		t.Fatal("no memoized dim scans evicted — test exercised nothing")
	}

	// Post-roll-in: hot keys {1..4, 9..12}, total 10 + (9+10+11+12).
	if got := sum(); got != 52 {
		t.Fatalf("post-roll-in total = %v, want 52 (stale pushdown state?)", got)
	}
}

// TestFactRollInMatchesReference rolls an extra SSB batch into the fact
// table through the snapshot registry and holds the engine to the in-memory
// reference over base+batch: an acknowledged roll-in is fully visible to
// the very next query, with exact results. (The concurrent version of this
// property — queries racing the roll-in under -race — lives in the serve
// oracle test.)
func TestFactRollInMatchesReference(t *testing.T) {
	e := newEnv(t, 3, 0.002)
	eng := e.engine(core.Options{})
	cat := e.lay.Catalog()

	// Generated lineorder dates are clustered by row position, so indexes
	// past LineorderRows() land on the calendar's last year — a 1998 filter
	// is the query the batch must visibly change.
	q1998, err := sql.Parse(`SELECT SUM(lo_revenue) AS revenue FROM lineorder, date
		WHERE lo_orderdate = d_datekey AND d_year = 1998`, cat)
	if err != nil {
		t.Fatal(err)
	}
	q1998.Name = "rollin-1998"
	before, _, err := eng.Run(context.Background(), q1998)
	if err != nil {
		t.Fatal(err)
	}

	// Roll extra generated lineorder rows into the fact table; per-row
	// seeding makes indexes past LineorderRows() valid fresh rows.
	base := e.gen.LineorderRows()
	const extra = 2000
	if _, _, err := eng.Snapshots().RollIn(cat.FactDir, 1000, func(emit func(records.Record) error) error {
		for i := base; i < base+extra; i++ {
			if err := emit(e.gen.Lineorder(i)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	each := func(table string, fn func(records.Record) error) error {
		if err := e.gen.Each(table, fn); err != nil {
			return err
		}
		if table == cat.FactName {
			for i := base; i < base+extra; i++ {
				if err := fn(e.gen.Lineorder(i)); err != nil {
					return err
				}
			}
		}
		return nil
	}
	q11, err := ssb.QueryByName("Q1.1")
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []*plan.Logical{q1998, q11} {
		after, _, err := eng.Run(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		want, err := refexec.RunLogical(q, each)
		if err != nil {
			t.Fatalf("%s ref: %v", q.Name, err)
		}
		if ok, why := results.Equivalent(after, want, 1e-9); !ok {
			t.Fatalf("%s post-roll-in mismatch: %s\ngot:\n%swant:\n%s", q.Name, why, after, want)
		}
		if q == q1998 && before.Rows[0].At(0).Float64() >= after.Rows[0].At(0).Float64() {
			t.Fatalf("roll-in did not grow the 1998 aggregate: %s then %s", before, after)
		}
	}
}

// TestDimAppendSeenWithoutInvalidation appends suppliers to the master
// copy and rolls in fact rows that reference them, calling neither
// DropDimCached nor InvalidateTable. Every driver and node read of a
// dimension is keyed by its data-file generation, so the next plan must
// count the new rows and the next answer must include the new fact rows:
// a stale bloom or a stale node copy would silently drop them.
func TestDimAppendSeenWithoutInvalidation(t *testing.T) {
	e := newEnv(t, 3, 0.002)
	eng := e.engine(core.Options{})
	cat := e.lay.Catalog()
	q, err := ssb.QueryByName("Q3.1")
	if err != nil {
		t.Fatal(err)
	}
	before, err := eng.PlanStats(q)
	if err != nil {
		t.Fatal(err)
	}
	// Populate every memo the append could leave stale: stats, the prune
	// hint and bloom, and each node's local copy.
	if _, _, err := eng.Run(context.Background(), q); err != nil {
		t.Fatal(err)
	}

	// New suppliers clone the first ASIA supplier under fresh keys.
	var asia records.Record
	for i := int64(0); i < e.gen.SupplierRows(); i++ {
		if r := e.gen.Supplier(i); r.Get("s_region").Str() == "ASIA" {
			asia = r
			break
		}
	}
	base := e.gen.SupplierRows()
	var suppliers []records.Record
	for k := base + 1; k <= base+4; k++ {
		r := asia.Clone()
		suppliers = append(suppliers, r.SetNamed("s_suppkey", records.Int(k)))
	}
	supDir, err := cat.DimDir(ssb.TableSupplier)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := colstore.AppendRowTable(e.fs, supDir, func(emit func(records.Record) error) error {
		for _, r := range suppliers {
			if err := emit(r); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Fact rows: copies of existing lineorder rows pointed at the new keys.
	var facts []records.Record
	for i := int64(0); i < 400; i++ {
		r := e.gen.Lineorder(i).Clone()
		facts = append(facts, r.SetNamed("lo_suppkey", records.Int(base+1+i%4)))
	}
	if _, _, err := eng.Snapshots().RollIn(cat.FactDir, 1000, func(emit func(records.Record) error) error {
		for _, r := range facts {
			if err := emit(r); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	after, err := eng.PlanStats(q)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := after.Tables[ssb.TableSupplier].Rows, before.Tables[ssb.TableSupplier].Rows+4; got != want {
		t.Fatalf("supplier rows after append = %d, want %d", got, want)
	}
	if got, want := after.Tables[ssb.TableSupplier].FilteredRows, before.Tables[ssb.TableSupplier].FilteredRows+4; got != want {
		t.Fatalf("ASIA suppliers after append = %d, want %d", got, want)
	}

	each := func(table string, fn func(records.Record) error) error {
		if err := e.gen.Each(table, fn); err != nil {
			return err
		}
		extra := map[string][]records.Record{ssb.TableSupplier: suppliers, cat.FactName: facts}[table]
		for _, r := range extra {
			if err := fn(r); err != nil {
				return err
			}
		}
		return nil
	}
	want, err := refexec.RunLogical(q, each)
	if err != nil {
		t.Fatal(err)
	}
	old, err := refexec.RunLogical(q, e.gen.Each)
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := results.Equivalent(want, old, 1e-9); ok {
		t.Fatal("the appended rows do not change Q3.1 — test exercises nothing")
	}
	got, _, err := eng.Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if ok, why := results.Equivalent(got, want, 1e-9); !ok {
		t.Fatalf("Q3.1 after an uninvalidated append: %s\ngot:\n%swant:\n%s", why, got, want)
	}
}
