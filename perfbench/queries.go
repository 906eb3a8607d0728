package main

import "fmt"

// sqlQuery is one workload query as the client sends it: a name (the
// flight it belongs to) and SQL text.
type sqlQuery struct {
	name string
	text string
}

// ssbQueries are the 13 Star Schema Benchmark queries, flight by flight.
var ssbQueries = []sqlQuery{
	{"Q1.1", `SELECT SUM(lo_extendedprice * lo_discount) AS revenue FROM lineorder, date
		WHERE lo_orderdate = d_datekey AND d_year = 1993 AND lo_discount BETWEEN 1 AND 3 AND lo_quantity < 25`},
	{"Q1.2", `SELECT SUM(lo_extendedprice * lo_discount) AS revenue FROM lineorder, date
		WHERE lo_orderdate = d_datekey AND d_yearmonthnum = 199401
		AND lo_discount BETWEEN 4 AND 6 AND lo_quantity BETWEEN 26 AND 35`},
	{"Q1.3", `SELECT SUM(lo_extendedprice * lo_discount) AS revenue FROM lineorder, date
		WHERE lo_orderdate = d_datekey AND d_weeknuminyear = 6 AND d_year = 1994
		AND lo_discount BETWEEN 5 AND 7 AND lo_quantity BETWEEN 26 AND 35`},
	{"Q2.1", flight2("p_category = 'MFGR#12'", "AMERICA")},
	{"Q2.2", flight2("p_brand1 BETWEEN 'MFGR#2221' AND 'MFGR#2228'", "ASIA")},
	{"Q2.3", flight2("p_brand1 = 'MFGR#2239'", "EUROPE")},
	{"Q3.1", `SELECT c_nation, s_nation, d_year, SUM(lo_revenue) AS revenue
		FROM customer, lineorder, supplier, date
		WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey AND lo_orderdate = d_datekey
		AND c_region = 'ASIA' AND s_region = 'ASIA' AND d_year >= 1992 AND d_year <= 1997
		GROUP BY c_nation, s_nation, d_year ORDER BY d_year ASC, revenue DESC`},
	{"Q3.2", flight3("c_nation = 'UNITED STATES' AND s_nation = 'UNITED STATES'", "d_year >= 1992 AND d_year <= 1997")},
	{"Q3.3", flight3(ukCities, "d_year >= 1992 AND d_year <= 1997")},
	{"Q3.4", flight3(ukCities, "d_yearmonth = 'Dec1997'")},
	{"Q4.1", `SELECT d_year, c_nation, SUM(lo_revenue - lo_supplycost) AS profit
		FROM date, customer, supplier, part, lineorder
		WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey AND lo_partkey = p_partkey AND lo_orderdate = d_datekey
		AND c_region = 'AMERICA' AND s_region = 'AMERICA' AND p_mfgr IN ('MFGR#1', 'MFGR#2')
		GROUP BY d_year, c_nation ORDER BY d_year, c_nation`},
	{"Q4.2", `SELECT d_year, s_nation, p_category, SUM(lo_revenue - lo_supplycost) AS profit
		FROM date, customer, supplier, part, lineorder
		WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey AND lo_partkey = p_partkey AND lo_orderdate = d_datekey
		AND c_region = 'AMERICA' AND s_region = 'AMERICA' AND d_year IN (1997, 1998) AND p_mfgr IN ('MFGR#1', 'MFGR#2')
		GROUP BY d_year, s_nation, p_category ORDER BY d_year, s_nation, p_category`},
	{"Q4.3", `SELECT d_year, s_city, p_brand1, SUM(lo_revenue - lo_supplycost) AS profit
		FROM date, customer, supplier, part, lineorder
		WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey AND lo_partkey = p_partkey AND lo_orderdate = d_datekey
		AND c_region = 'AMERICA' AND s_nation = 'UNITED STATES' AND d_year IN (1997, 1998) AND p_category = 'MFGR#14'
		GROUP BY d_year, s_city, p_brand1 ORDER BY d_year, s_city, p_brand1`},
}

const ukCities = "c_city IN ('UNITED KI1', 'UNITED KI5') AND s_city IN ('UNITED KI1', 'UNITED KI5')"

func flight2(partPred, region string) string {
	return fmt.Sprintf(`SELECT SUM(lo_revenue) AS revenue, d_year, p_brand1 FROM lineorder, date, part, supplier
		WHERE lo_orderdate = d_datekey AND lo_partkey = p_partkey AND lo_suppkey = s_suppkey
		AND %s AND s_region = '%s' GROUP BY d_year, p_brand1 ORDER BY d_year, p_brand1`, partPred, region)
}

func flight3(placePred, datePred string) string {
	return fmt.Sprintf(`SELECT c_city, s_city, d_year, SUM(lo_revenue) AS revenue
		FROM customer, lineorder, supplier, date
		WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey AND lo_orderdate = d_datekey
		AND %s AND %s GROUP BY c_city, s_city, d_year ORDER BY d_year ASC, revenue DESC`, placePred, datePred)
}

// Dashboard parameters: 5 years x 4 discount windows x 5 quantity bounds
// give the 100 interactive variants.
var (
	dashYears     = []int{1993, 1994, 1995, 1996, 1997}
	dashDiscounts = []int{1, 3, 5, 7}
	dashQuantity  = []int{20, 25, 30, 35, 40}
)

const dashVariants = 100

// dashboard is interactive variant v (0 <= v < dashVariants), a flight-1
// query.
func dashboard(v int) sqlQuery {
	y := dashYears[v%len(dashYears)]
	d := dashDiscounts[(v/len(dashYears))%len(dashDiscounts)]
	q := dashQuantity[v/(len(dashYears)*len(dashDiscounts))]
	return sqlQuery{"Q1.1", fmt.Sprintf(`SELECT SUM(lo_extendedprice * lo_discount) AS revenue FROM lineorder, date
		WHERE lo_orderdate = d_datekey AND d_year = %d AND lo_discount BETWEEN %d AND %d AND lo_quantity < %d`,
		y, d, d+2, q)}
}

var (
	regions = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	nations = []string{"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "CHINA", "FRANCE", "GERMANY", "INDIA",
		"JAPAN", "UNITED KINGDOM", "UNITED STATES", "VIETNAM"}
)

// reportBurst is reporting refresh i: a flight-2 query for a region and
// part category, a flight-3 query for a nation and first year, and a
// flight-4 query for a pair of regions and years. Successive bursts step
// through the parameters so that no query repeats within 72 bursts: the
// reporting class misses the result cache and runs on the engine.
func reportBurst(i int) []sqlQuery {
	category := fmt.Sprintf("MFGR#%d%d", 1+i%5, 1+(i/5)%5)
	region := regions[(i/25)%len(regions)]
	nation := nations[i%len(nations)]
	from := 1992 + (i/len(nations))%6
	cRegion, sRegion := regions[i%len(regions)], regions[(i/5)%len(regions)]
	year := 1992 + (i/25)%6
	return []sqlQuery{
		{"Q2.1", flight2(fmt.Sprintf("p_category = '%s'", category), region)},
		{"Q3.2", flight3(fmt.Sprintf("c_nation = '%s' AND s_nation = '%s'", nation, nation),
			fmt.Sprintf("d_year >= %d AND d_year <= 1997", from))},
		{"Q4.2", fmt.Sprintf(`SELECT d_year, s_nation, p_category, SUM(lo_revenue - lo_supplycost) AS profit
			FROM date, customer, supplier, part, lineorder
			WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey AND lo_partkey = p_partkey
			AND lo_orderdate = d_datekey AND c_region = '%s' AND s_region = '%s'
			AND d_year IN (%d, %d) AND p_mfgr IN ('MFGR#1', 'MFGR#2')
			GROUP BY d_year, s_nation, p_category ORDER BY d_year, s_nation, p_category`, cRegion, sRegion, year, year+1)},
	}
}

// ingestRead is the ingest reader's query i: alternately a dashboard
// variant and a flight-3 query for a nation and first year. Successive
// reads do not repeat a query for 144 reads, so every read misses the
// result cache (each roll-in invalidates it anyway) and runs on the
// engine. The parameter that sets a query's cost, its years, cycles
// fastest: every 12 reads hold the same mix, so the mix of a window does
// not depend on where in a slower cycle the window ends.
func ingestRead(i int) sqlQuery {
	j := i / 2
	if i%2 == 0 {
		return dashboard(j % dashVariants)
	}
	nation := nations[(j/6)%len(nations)]
	return sqlQuery{"Q3.2", flight3(fmt.Sprintf("c_nation = '%s' AND s_nation = '%s'", nation, nation),
		fmt.Sprintf("d_year >= %d AND d_year <= 1997", 1992+j%6))}
}
