package sql_test

import (
	"strings"
	"testing"

	"clydesdale/internal/core"
	"clydesdale/internal/plan"
	"clydesdale/internal/records"
	"clydesdale/internal/refexec"
	"clydesdale/internal/results"
	"clydesdale/internal/sql"
	"clydesdale/internal/ssb"
)

// TestSSBQueriesFromSQLMatchCatalog binds every SSB query text against a
// storage catalog (the one a loaded dataset exposes) and checks it yields
// the same plan — same cache identity, same EXPLAIN — and the same
// reference answers as the schema-only catalog ssb.Queries binds against.
func TestSSBQueriesFromSQLMatchCatalog(t *testing.T) {
	gen := ssb.NewGenerator(0.002, 42)
	lay := &ssb.Layout{FactCIF: "/ssb/lineorder.cif", Dims: map[string]string{
		ssb.TableCustomer: "/ssb/customer", ssb.TableSupplier: "/ssb/supplier",
		ssb.TablePart: "/ssb/part", ssb.TableDate: "/ssb/date",
	}}
	qs := ssb.Queries()
	for i, text := range ssb.QuerySQL {
		parsed, err := sql.Parse(text.Text, lay.Catalog())
		if err != nil {
			t.Fatalf("%s: %v", text.Name, err)
		}
		parsed.Name = text.Name
		q := qs[i]
		if got, want := explain(t, parsed), explain(t, q); got != want {
			t.Errorf("%s: plans differ:\n%s\nvs\n%s", q.Name, got, want)
		}
		got, err := refexec.RunLogical(parsed, gen.Each)
		if err != nil {
			t.Fatalf("%s parsed run: %v", q.Name, err)
		}
		want, err := refexec.RunLogical(q, gen.Each)
		if err != nil {
			t.Fatalf("%s catalog run: %v", q.Name, err)
		}
		if ok, why := results.Equivalent(got, want, 1e-9); !ok {
			t.Errorf("%s: SQL and catalog answers differ: %s", q.Name, why)
		}
	}
}

// explain renders the plan the chooser picks under default statistics
// plus its cache identity.
func explain(t *testing.T, l *plan.Logical) string {
	t.Helper()
	p, err := plan.Choose(l, nil)
	if err != nil {
		t.Fatalf("%s: %v", l.Name, err)
	}
	var b strings.Builder
	if err := plan.Explain(&b, p); err != nil {
		t.Fatal(err)
	}
	k := plan.KeyOf(p.Shape)
	return b.String() + k.Fingerprint()
}

func TestParseErrors(t *testing.T) {
	cat := ssb.SchemaCatalog()
	cases := []struct {
		name, text, wantErr string
	}{
		{"no sum", "SELECT d_year FROM lineorder, date WHERE lo_orderdate = d_datekey GROUP BY d_year", "SUM"},
		{"unknown table", "SELECT SUM(lo_revenue) FROM lineorder, nope WHERE lo_orderdate = d_datekey", "unknown table"},
		{"no fact", "SELECT SUM(lo_revenue) FROM date", "fact table"},
		{"missing join", "SELECT SUM(lo_revenue) FROM lineorder, date WHERE d_year = 1993", "no join condition"},
		{"unknown column", "SELECT SUM(lo_revenue) FROM lineorder, date WHERE lo_orderdate = d_datekey AND wat = 3", "unknown column"},
		{"group not dim", "SELECT SUM(lo_revenue) FROM lineorder, date WHERE lo_orderdate = d_datekey GROUP BY lo_quantity", "GROUP BY"},
		{"select not grouped", "SELECT d_year, SUM(lo_revenue) FROM lineorder, date WHERE lo_orderdate = d_datekey", "not in GROUP BY"},
		{"order not grouped", "SELECT SUM(lo_revenue) AS r FROM lineorder, date WHERE lo_orderdate = d_datekey ORDER BY d_year", "ORDER BY"},
		{"two sums", "SELECT SUM(lo_revenue), SUM(lo_quantity) FROM lineorder, date WHERE lo_orderdate = d_datekey", "one SUM"},
		{"sum of dim col", "SELECT SUM(d_year) FROM lineorder, date WHERE lo_orderdate = d_datekey", "fact column"},
		{"join dim dim", "SELECT SUM(lo_revenue) FROM lineorder, date, part WHERE lo_orderdate = d_datekey AND d_datekey = p_partkey AND lo_partkey = p_partkey", "already-joined"},
		{"joined twice", "SELECT SUM(lo_revenue) FROM lineorder, date WHERE lo_orderdate = d_datekey AND lo_commitdate = d_datekey", "already-joined"},
		{"disconnected join", "SELECT SUM(lo_revenue) FROM lineorder, date, part WHERE d_datekey = p_partkey", "not connected"},
		{"unterminated string", "SELECT SUM(lo_revenue) FROM lineorder WHERE lo_shipmode = 'AIR", "unterminated"},
		{"trailing garbage", "SELECT SUM(lo_revenue) FROM lineorder, date WHERE lo_orderdate = d_datekey )", "trailing"},
		{"bad char", "SELECT SUM(lo_revenue) FROM lineorder @", "unexpected character"},
	}
	for _, c := range cases {
		_, err := sql.Parse(c.text, cat)
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantErr)
		}
	}
}

func TestParseDefaults(t *testing.T) {
	cat := ssb.SchemaCatalog()
	shape := func(text string) *plan.Shape {
		t.Helper()
		l, err := sql.Parse(text, cat)
		if err != nil {
			t.Fatal(err)
		}
		sh, err := plan.Decompose(l)
		if err != nil {
			t.Fatal(err)
		}
		return sh
	}
	sh := shape("SELECT SUM(lo_revenue) FROM lineorder, date WHERE lo_orderdate = d_datekey")
	if sh.AggName != "sum" {
		t.Errorf("default agg name = %q", sh.AggName)
	}
	if sh.FactPred != nil || len(sh.GroupBy) != 0 || len(sh.OrderBy) != 0 {
		t.Error("unexpected clauses")
	}
	// Reversed join order (dim column on the left) binds identically.
	sh2 := shape("SELECT SUM(lo_revenue) FROM lineorder, date WHERE d_datekey = lo_orderdate")
	if sh2.Joins[0].FK != "lo_orderdate" || sh2.Joins[0].PK != "d_datekey" {
		t.Errorf("reversed join bound as %s=%s", sh2.Joins[0].FK, sh2.Joins[0].PK)
	}
	// Float literals and division parse.
	sh3 := shape("SELECT SUM(lo_revenue / 100.5) FROM lineorder, date WHERE lo_orderdate = d_datekey")
	if sh3.Agg == nil {
		t.Error("no aggregate expr")
	}
}

// TestParseSnowflake binds a statement whose second join hangs off a
// dimension rather than the fact table, which the logical IR expresses and
// the single-pass star lowering rejects.
func TestParseSnowflake(t *testing.T) {
	cat := &core.Catalog{
		FactName: "f",
		FactSchema: records.NewSchema(
			records.F("f_a_fk", records.KindInt64),
			records.F("f_m", records.KindInt64),
		),
		DimSchemas: map[string]*records.Schema{
			"a": records.NewSchema(
				records.F("a_pk", records.KindInt64),
				records.F("a_b_fk", records.KindInt64),
				records.F("a_attr", records.KindString),
			),
			"b": records.NewSchema(
				records.F("b_pk", records.KindInt64),
				records.F("b_attr", records.KindString),
			),
		},
	}
	// The WHERE lists the deep edge first: the attach loop must defer it
	// until a joins.
	text := `SELECT b_attr, SUM(f_m) AS total FROM f, a, b
		WHERE a_b_fk = b_pk AND f_a_fk = a_pk GROUP BY b_attr`
	l, err := sql.Parse(text, cat)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := plan.Decompose(l)
	if err != nil {
		t.Fatal(err)
	}
	if sh.MaxDepth() != 2 {
		t.Errorf("max depth = %d, want 2", sh.MaxDepth())
	}
	var deep *plan.JoinEdge
	for i := range sh.Joins {
		if sh.Joins[i].Table == "b" {
			deep = &sh.Joins[i]
		}
	}
	if deep == nil || deep.Parent != "a" || deep.Depth != 2 || deep.FK != "a_b_fk" {
		t.Errorf("edge b bound as %+v", deep)
	}

	// The single-pass star join cannot express the chain.
	if _, err := core.StarPlan(l); err == nil {
		t.Error("StarPlan accepted a snowflake statement")
	}
}
