package ssb

import (
	"fmt"
	"strings"

	"clydesdale/internal/core"
	"clydesdale/internal/plan"
	"clydesdale/internal/sql"
)

// QuerySQL holds the 13 SSB queries in flight order (Q1.1 … Q4.3) as SQL,
// adapted to this repo's schema (brands carry two-digit numbers). The
// WHERE join equalities fix each query's join order, because the binder
// joins in the order they appear: flight 2 and flight 4 follow the SSB
// FROM clause (date first), which is the order Hive 0.7 joins in — the
// unfiltered date join coming first is what makes the baseline's stage-1
// intermediate as large as the fact table (§6.3).
var QuerySQL = []struct{ Name, Text string }{
	// ---- Flight 1: fact-predicate scans joined with date only.
	{"Q1.1", `SELECT SUM(lo_extendedprice * lo_discount) AS revenue
		FROM lineorder, date
		WHERE lo_orderdate = d_datekey AND d_year = 1993
		  AND lo_discount BETWEEN 1 AND 3 AND lo_quantity < 25`},
	{"Q1.2", `SELECT SUM(lo_extendedprice * lo_discount) AS revenue
		FROM lineorder, date
		WHERE lo_orderdate = d_datekey AND d_yearmonthnum = 199401
		  AND lo_discount BETWEEN 4 AND 6 AND lo_quantity BETWEEN 26 AND 35`},
	{"Q1.3", `SELECT SUM(lo_extendedprice * lo_discount) AS revenue
		FROM lineorder, date
		WHERE lo_orderdate = d_datekey AND d_weeknuminyear = 6 AND d_year = 1994
		  AND lo_discount BETWEEN 5 AND 7 AND lo_quantity BETWEEN 26 AND 35`},

	// ---- Flight 2: part × supplier × date.
	{"Q2.1", `SELECT SUM(lo_revenue) AS revenue, d_year, p_brand1
		FROM lineorder, date, part, supplier
		WHERE lo_orderdate = d_datekey AND lo_partkey = p_partkey AND lo_suppkey = s_suppkey
		  AND p_category = 'MFGR#12' AND s_region = 'AMERICA'
		GROUP BY d_year, p_brand1 ORDER BY d_year, p_brand1`},
	{"Q2.2", `SELECT SUM(lo_revenue) AS revenue, d_year, p_brand1
		FROM lineorder, date, part, supplier
		WHERE lo_orderdate = d_datekey AND lo_partkey = p_partkey AND lo_suppkey = s_suppkey
		  AND p_brand1 BETWEEN 'MFGR#2221' AND 'MFGR#2228' AND s_region = 'ASIA'
		GROUP BY d_year, p_brand1 ORDER BY d_year, p_brand1`},
	{"Q2.3", `SELECT SUM(lo_revenue) AS revenue, d_year, p_brand1
		FROM lineorder, date, part, supplier
		WHERE lo_orderdate = d_datekey AND lo_partkey = p_partkey AND lo_suppkey = s_suppkey
		  AND p_brand1 = 'MFGR#2239' AND s_region = 'EUROPE'
		GROUP BY d_year, p_brand1 ORDER BY d_year, p_brand1`},

	// ---- Flight 3: customer × supplier × date (the paper's §4.2 example
	// is Q3.1).
	{"Q3.1", `SELECT c_nation, s_nation, d_year, SUM(lo_revenue) AS revenue
		FROM customer, lineorder, supplier, date
		WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey AND lo_orderdate = d_datekey
		  AND c_region = 'ASIA' AND s_region = 'ASIA' AND d_year BETWEEN 1992 AND 1997
		GROUP BY c_nation, s_nation, d_year ORDER BY d_year ASC, revenue DESC`},
	{"Q3.2", `SELECT c_city, s_city, d_year, SUM(lo_revenue) AS revenue
		FROM customer, lineorder, supplier, date
		WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey AND lo_orderdate = d_datekey
		  AND c_nation = 'UNITED STATES' AND s_nation = 'UNITED STATES'
		  AND d_year BETWEEN 1992 AND 1997
		GROUP BY c_city, s_city, d_year ORDER BY d_year ASC, revenue DESC`},
	{"Q3.3", `SELECT c_city, s_city, d_year, SUM(lo_revenue) AS revenue
		FROM customer, lineorder, supplier, date
		WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey AND lo_orderdate = d_datekey
		  AND c_city IN ('UNITED KI1', 'UNITED KI5') AND s_city IN ('UNITED KI1', 'UNITED KI5')
		  AND d_year BETWEEN 1992 AND 1997
		GROUP BY c_city, s_city, d_year ORDER BY d_year ASC, revenue DESC`},
	{"Q3.4", `SELECT c_city, s_city, d_year, SUM(lo_revenue) AS revenue
		FROM customer, lineorder, supplier, date
		WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey AND lo_orderdate = d_datekey
		  AND c_city IN ('UNITED KI1', 'UNITED KI5') AND s_city IN ('UNITED KI1', 'UNITED KI5')
		  AND d_yearmonth = 'Dec1997'
		GROUP BY c_city, s_city, d_year ORDER BY d_year ASC, revenue DESC`},

	// ---- Flight 4: all four dimensions.
	{"Q4.1", `SELECT d_year, c_nation, SUM(lo_revenue - lo_supplycost) AS profit
		FROM date, customer, supplier, part, lineorder
		WHERE lo_orderdate = d_datekey AND lo_custkey = c_custkey
		  AND lo_suppkey = s_suppkey AND lo_partkey = p_partkey
		  AND c_region = 'AMERICA' AND s_region = 'AMERICA'
		  AND p_mfgr IN ('MFGR#1', 'MFGR#2')
		GROUP BY d_year, c_nation ORDER BY d_year, c_nation`},
	{"Q4.2", `SELECT d_year, s_nation, p_category, SUM(lo_revenue - lo_supplycost) AS profit
		FROM date, customer, supplier, part, lineorder
		WHERE lo_orderdate = d_datekey AND lo_custkey = c_custkey
		  AND lo_suppkey = s_suppkey AND lo_partkey = p_partkey
		  AND c_region = 'AMERICA' AND s_region = 'AMERICA'
		  AND d_year IN (1997, 1998) AND p_mfgr IN ('MFGR#1', 'MFGR#2')
		GROUP BY d_year, s_nation, p_category ORDER BY d_year, s_nation, p_category`},
	{"Q4.3", `SELECT d_year, s_city, p_brand1, SUM(lo_revenue - lo_supplycost) AS profit
		FROM date, customer, supplier, part, lineorder
		WHERE lo_orderdate = d_datekey AND lo_custkey = c_custkey
		  AND lo_suppkey = s_suppkey AND lo_partkey = p_partkey
		  AND c_region = 'AMERICA' AND s_nation = 'UNITED STATES'
		  AND d_year IN (1997, 1998) AND p_category = 'MFGR#14'
		GROUP BY d_year, s_city, p_brand1 ORDER BY d_year, s_city, p_brand1`},
}

// SchemaCatalog is the storage-less SSB catalog: table names and schemas
// only. The queries bind against it; Layout.Catalog adds the directories.
func SchemaCatalog() *core.Catalog {
	return &core.Catalog{
		FactName:   TableLineorder,
		FactSchema: LineorderSchema,
		DimSchemas: dimSchemas(),
	}
}

// Queries returns the 13 SSB queries in flight order, each freshly bound
// (callers may rename or rewrite the plans they get).
func Queries() []*plan.Logical {
	cat := SchemaCatalog()
	out := make([]*plan.Logical, len(QuerySQL))
	for i, q := range QuerySQL {
		l, err := sql.Parse(q.Text, cat)
		if err != nil {
			// The texts are fixed; TestQueriesValidate binds every one.
			panic(fmt.Sprintf("ssb: %s does not bind: %v", q.Name, err))
		}
		l.Name = q.Name
		out[i] = l
	}
	return out
}

// QueryByName returns the named query (case-insensitive, e.g. "q3.1").
func QueryByName(name string) (*plan.Logical, error) {
	for _, q := range Queries() {
		if strings.EqualFold(q.Name, name) {
			return q, nil
		}
	}
	return nil, fmt.Errorf("ssb: unknown query %q", name)
}
