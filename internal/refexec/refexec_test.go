package refexec

import (
	"testing"

	"clydesdale/internal/expr"
	"clydesdale/internal/plan"
	"clydesdale/internal/records"
	"clydesdale/internal/results"
	"clydesdale/internal/ssb"
)

func TestAllQueriesRun(t *testing.T) {
	gen := ssb.NewGenerator(0.002, 42)
	for _, q := range ssb.Queries() {
		rs, err := RunLogical(q, gen.Each)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		sh, err := plan.Decompose(q)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		if !rs.Schema.Equal(sh.ResultSchema()) {
			t.Errorf("%s: schema %v", q.Name, rs.Schema)
		}
		if len(sh.GroupBy) == 0 && len(rs.Rows) != 1 {
			t.Errorf("%s: grand aggregate returned %d rows", q.Name, len(rs.Rows))
		}
	}
}

// TestQ11AgainstBruteForce checks the reference executor itself against a
// hand-rolled evaluation of Q1.1 semantics.
func TestQ11AgainstBruteForce(t *testing.T) {
	gen := ssb.NewGenerator(0.002, 42)
	q, err := ssb.QueryByName("Q1.1")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := RunLogical(q, gen.Each)
	if err != nil {
		t.Fatal(err)
	}

	// Brute force: collect 1993 date keys, scan the fact table.
	year1993 := map[int64]bool{}
	for i := int64(0); i < gen.DateRows(); i++ {
		d := gen.Date(i)
		if d.Get("d_year").Int64() == 1993 {
			year1993[d.Get("d_datekey").Int64()] = true
		}
	}
	var want float64
	for i := int64(0); i < gen.LineorderRows(); i++ {
		lo := gen.Lineorder(i)
		disc := lo.Get("lo_discount").Int64()
		qty := lo.Get("lo_quantity").Int64()
		if disc >= 1 && disc <= 3 && qty < 25 && year1993[lo.Get("lo_orderdate").Int64()] {
			want += float64(lo.Get("lo_extendedprice").Int64() * disc)
		}
	}
	if len(rs.Rows) != 1 {
		t.Fatalf("rows = %d", len(rs.Rows))
	}
	got := rs.Rows[0].Get("revenue").Float64()
	if got != want {
		t.Errorf("Q1.1 = %v, want %v", got, want)
	}
	if want == 0 {
		t.Error("Q1.1 selected nothing; generator distributions look wrong")
	}
}

// TestQ31GroupingAgainstBruteForce verifies a grouped query end to end.
func TestQ31GroupingAgainstBruteForce(t *testing.T) {
	gen := ssb.NewGenerator(0.002, 42)
	q, _ := ssb.QueryByName("Q3.1")
	rs, err := RunLogical(q, gen.Each)
	if err != nil {
		t.Fatal(err)
	}

	type key struct {
		cNation, sNation string
		year             int64
	}
	custAsia := map[int64]string{}
	for i := int64(0); i < gen.CustomerRows(); i++ {
		c := gen.Customer(i)
		if c.Get("c_region").Str() == "ASIA" {
			custAsia[c.Get("c_custkey").Int64()] = c.Get("c_nation").Str()
		}
	}
	suppAsia := map[int64]string{}
	for i := int64(0); i < gen.SupplierRows(); i++ {
		s := gen.Supplier(i)
		if s.Get("s_region").Str() == "ASIA" {
			suppAsia[s.Get("s_suppkey").Int64()] = s.Get("s_nation").Str()
		}
	}
	dateYear := map[int64]int64{}
	for i := int64(0); i < gen.DateRows(); i++ {
		d := gen.Date(i)
		y := d.Get("d_year").Int64()
		if y >= 1992 && y <= 1997 {
			dateYear[d.Get("d_datekey").Int64()] = y
		}
	}
	want := map[key]float64{}
	for i := int64(0); i < gen.LineorderRows(); i++ {
		lo := gen.Lineorder(i)
		cn, ok := custAsia[lo.Get("lo_custkey").Int64()]
		if !ok {
			continue
		}
		sn, ok := suppAsia[lo.Get("lo_suppkey").Int64()]
		if !ok {
			continue
		}
		y, ok := dateYear[lo.Get("lo_orderdate").Int64()]
		if !ok {
			continue
		}
		want[key{cn, sn, y}] += float64(lo.Get("lo_revenue").Int64())
	}
	if len(rs.Rows) != len(want) {
		t.Fatalf("groups = %d, want %d", len(rs.Rows), len(want))
	}
	for _, r := range rs.Rows {
		k := key{r.Get("c_nation").Str(), r.Get("s_nation").Str(), r.Get("d_year").Int64()}
		if r.Get("revenue").Float64() != want[k] {
			t.Errorf("group %v: %v want %v", k, r.Get("revenue").Float64(), want[k])
		}
	}
	// Ordering: year ascending, revenue descending within year.
	for i := 1; i < len(rs.Rows); i++ {
		prev, cur := rs.Rows[i-1], rs.Rows[i]
		py, cy := prev.Get("d_year").Int64(), cur.Get("d_year").Int64()
		if py > cy {
			t.Fatal("rows not ordered by year")
		}
		if py == cy && prev.Get("revenue").Float64() < cur.Get("revenue").Float64() {
			t.Fatal("rows not ordered by revenue desc within year")
		}
	}
}

func TestResultSetHelpers(t *testing.T) {
	s := records.NewSchema(records.F("g", records.KindString), records.F("v", records.KindFloat64))
	rs := &results.ResultSet{Schema: s, Rows: []records.Record{
		records.Make(s, records.Str("b"), records.Float(1)),
		records.Make(s, records.Str("a"), records.Float(2)),
	}}
	if err := rs.Sort([]results.Order{{Col: "g"}}); err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0].Get("g").Str() != "a" {
		t.Error("sort failed")
	}
	if err := rs.Sort([]results.Order{{Col: "missing"}}); err == nil {
		t.Error("expected sort error")
	}
	other := &results.ResultSet{Schema: s, Rows: []records.Record{
		records.Make(s, records.Str("a"), records.Float(2.0000001)),
		records.Make(s, records.Str("b"), records.Float(1)),
	}}
	if ok, why := results.Equivalent(rs, other, 1e-6); !ok {
		t.Errorf("Equivalent = false: %s", why)
	}
	bad := &results.ResultSet{Schema: s, Rows: []records.Record{
		records.Make(s, records.Str("a"), records.Float(5)),
		records.Make(s, records.Str("b"), records.Float(1)),
	}}
	if ok, _ := results.Equivalent(rs, bad, 1e-6); ok {
		t.Error("Equivalent should reject different sums")
	}
	short := &results.ResultSet{Schema: s}
	if ok, _ := results.Equivalent(rs, short, 1e-6); ok {
		t.Error("Equivalent should reject different row counts")
	}
	if rs.String() == "" {
		t.Error("String should render")
	}
}

func TestRunErrorOnBadQuery(t *testing.T) {
	gen := ssb.NewGenerator(0.002, 1)
	fact := &plan.Scan{Table: ssb.TableLineorder, Source: ssb.LineorderSchema, Fact: true}
	date := &plan.Scan{Table: ssb.TableDate, Source: ssb.DateSchema}
	q := &plan.Logical{Name: "bad", Root: &plan.Aggregate{
		Input: &plan.Join{Left: fact, LeftKey: "lo_orderdate", RightKey: "d_datekey",
			Right: &plan.Filter{Input: date, Pred: expr.Eq(expr.Col("nope"), expr.ConstInt(1))}},
		Agg: expr.Col("lo_revenue"), AggName: "r",
	}}
	if _, err := RunLogical(q, gen.Each); err == nil {
		t.Error("expected error for bad dim predicate")
	}
	q2 := &plan.Logical{Name: "badgroup", Root: &plan.Aggregate{
		Input: &plan.Join{Left: fact, Right: date, LeftKey: "lo_orderdate", RightKey: "d_datekey"},
		Agg:   expr.Col("lo_revenue"), AggName: "r",
		GroupBy: []string{"nope"}, // produced by no input
	}}
	if _, err := RunLogical(q2, gen.Each); err == nil {
		t.Error("expected error for an unknown group column")
	}
	if _, err := RunLogical(nil, gen.Each); err == nil {
		t.Error("expected error for a nil plan")
	}
}
