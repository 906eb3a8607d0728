package core

import (
	"fmt"
	"testing"

	"clydesdale/internal/cluster"
	"clydesdale/internal/colstore"
	"clydesdale/internal/expr"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/plan"
	"clydesdale/internal/records"
)

// benchDimEntries synthesizes dimension entries shaped like the SSB
// dimensions: non-dense int64 keys with two aux values (a string and an
// int).
func benchDimEntries(n int) (keys []int64, aux [][]records.Value) {
	keys = make([]int64, n)
	aux = make([][]records.Value, n)
	for i := 0; i < n; i++ {
		// Spread keys the way datekey/custkey values are spread: non-dense,
		// including values far above n.
		keys[i] = int64(i)*7919 + 3
		aux[i] = []records.Value{
			records.Str("AMERICA"),
			records.Int(int64(i % 7)),
		}
	}
	return keys, aux
}

// newBenchTable builds a DimHashTable directly from key/aux pairs, bypassing
// the file-system decode path, so the benchmark isolates the table itself.
func newBenchTable(keys []int64, aux [][]records.Value) *DimHashTable {
	h := newDimHashTable("bench", len(aux[0]), len(keys))
	for i, k := range keys {
		h.insert(k, aux[i])
	}
	h.finalize()
	return h
}

// benchProbes returns a probe stream of ~50% hits and ~50% misses.
func benchProbes(keys []int64) []int64 {
	probes := make([]int64, len(keys)*2)
	for i, k := range keys {
		probes[2*i] = k
		probes[2*i+1] = k + 1 // never a valid key (keys are ≡3 mod 7919)
	}
	return probes
}

// BenchmarkDimTableProbe measures the probe hot loop: a mix of hits and
// misses against a read-only dimension table, touching the aux values the
// way probeBlocks does. The gomap variants probe the pre-change
// map[int64][]Value layout for comparison; sizes bracket the SSB dimension
// cardinalities.
func BenchmarkDimTableProbe(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 16} {
		keys, aux := benchDimEntries(n)
		probes := benchProbes(keys)

		b.Run(fmt.Sprintf("open/n=%d", n), func(b *testing.B) {
			h := newBenchTable(keys, aux)
			b.ReportAllocs()
			b.ResetTimer()
			var hits int64
			for i := 0; i < b.N; i++ {
				if av, ok := h.Probe(probes[i%len(probes)]); ok {
					hits += av[1].Int64()
				}
			}
			benchSink = hits
		})

		b.Run(fmt.Sprintf("gomap/n=%d", n), func(b *testing.B) {
			m := make(map[int64][]records.Value, n)
			for i, k := range keys {
				av := make([]records.Value, len(aux[i]))
				copy(av, aux[i])
				m[k] = av
			}
			b.ReportAllocs()
			b.ResetTimer()
			var hits int64
			for i := 0; i < b.N; i++ {
				if av, ok := m[probes[i%len(probes)]]; ok {
					hits += av[1].Int64()
				}
			}
			benchSink = hits
		})
	}
}

// BenchmarkDimHashBuild measures table construction. open and gomap time
// only the inserts of pre-decoded rows, against the pre-change Go-map
// layout. fromcopy times a whole per-node §6.3 build the way a task runs
// it — BuildDimHashTable over the node's column-major copy: decode the
// edge's columns, filter on dictionary codes, insert — for the customer
// edges of Q3.1 and Q4.1; fromrows is the row-at-a-time build it replaced
// (every row decoded whole from the wire-encoded copy, predicate on the
// boxed record), for the ratio.
func BenchmarkDimHashBuild(b *testing.B) {
	const n = 1 << 14
	keys, aux := benchDimEntries(n)

	b.Run("open", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h := newBenchTable(keys, aux)
			if h.Len() != n {
				b.Fatalf("len = %d, want %d", h.Len(), n)
			}
		}
	})

	b.Run("gomap", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := make(map[int64][]records.Value)
			for j, k := range keys {
				av := make([]records.Value, len(aux[j]))
				copy(av, aux[j])
				m[k] = av
			}
			if len(m) != n {
				b.Fatalf("len = %d, want %d", len(m), n)
			}
		}
	})

	fs, node, dir, wire := benchCustomer(b)
	for _, q := range []struct{ name, region string }{{"Q3.1", "ASIA"}, {"Q4.1", "AMERICA"}} {
		edge := &plan.JoinEdge{Table: "customer", Schema: benchCustomerSchema, FK: "lo_custkey", PK: "c_custkey",
			Pred: expr.Eq(expr.Col("c_region"), expr.ConstStr(q.region)), Depth: 1, Aux: []string{"c_nation"}}
		b.Run("fromcopy/"+q.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := BuildDimHashTable(fs, node, dir, edge); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("fromrows/"+q.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := BuildDimHashTableFromRows(edge, wire); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var benchCustomerSchema = records.NewSchema(
	records.F("c_custkey", records.KindInt64),
	records.F("c_name", records.KindString),
	records.F("c_address", records.KindString),
	records.F("c_city", records.KindString),
	records.F("c_nation", records.KindString),
	records.F("c_region", records.KindString),
	records.F("c_phone", records.KindString),
	records.F("c_mktsegment", records.KindString),
)

// benchCustomer stores an SSB-shaped customer table — 30 000 rows (its
// cardinality at scale factor 1), 25 nations in 5 regions, 10 cities per
// nation, distinct names, addresses and phones — in HDFS, caches it on a
// node, and returns the node with the table's directory and its
// wire-encoded rows (the pre-change node-local copy).
func benchCustomer(b *testing.B) (*hdfs.FileSystem, *cluster.Node, string, []byte) {
	b.Helper()
	const rows = 30_000
	regions := []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	segments := []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"}
	c := cluster.New(cluster.Testing(1))
	fs := hdfs.New(c, hdfs.Options{BlockSize: 1 << 20, Replication: 1, Seed: 1})
	const dir = "/bench/customer"
	var wire []byte
	if _, err := colstore.WriteRowTable(fs, dir, benchCustomerSchema, func(emit func(records.Record) error) error {
		for i := int64(0); i < rows; i++ {
			nation := (i * 7919) % 25
			r := records.Make(benchCustomerSchema,
				records.Int(i+1),
				records.Str(fmt.Sprintf("Customer#%09d", i+1)),
				records.Str(fmt.Sprintf("addr-%d", (i*104729)%1_000_000)),
				records.Str(fmt.Sprintf("NATION%02d %d", nation, i%10)),
				records.Str(fmt.Sprintf("NATION%02d", nation)),
				records.Str(regions[nation%5]),
				records.Str(fmt.Sprintf("%02d-%03d-%03d-%04d", 10+nation, i%1000, (i/1000)%1000, i%10000)),
				records.Str(segments[i%5]),
			)
			wire = records.AppendRecord(wire, r)
			if err := emit(r); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	if _, err := EnsureDimCached(fs, dir); err != nil {
		b.Fatal(err)
	}
	return fs, c.Nodes()[0], dir, wire
}

// encodeSink mimics the map collector's cost model: serialize both records
// immediately into a reusable buffer, retain nothing.
type encodeSink struct {
	buf []byte
	n   int
}

func (s *encodeSink) Collect(k, v records.Record) error {
	s.buf = records.AppendRecord(s.buf[:0], k)
	s.buf = records.AppendRecord(s.buf, v)
	s.n++
	return nil
}

// BenchmarkAggregateEmit measures the per-joined-row emit path downstream of
// a successful probe — the Figure 4 map-side aggregation hand-off. Three
// variants:
//
//   - inmapper: the default path; the group key is encoded into a scratch
//     buffer and the measure folds into the per-thread aggregator, so no
//     boxed records exist until flush.
//   - scratch: the combining-off path; reusable scratch records carry the
//     pair to the collector.
//   - boxed: the pre-change path, kept as the regression reference; every
//     row allocates a key slice, a key record and a value record before the
//     collector sees them.
//
// The workload is Q2.1-shaped: two group-by columns drawn from two joined
// dimensions, 35 distinct groups.
func BenchmarkAggregateEmit(b *testing.B) {
	gschema := records.NewSchema(
		records.F("d_year", records.KindInt64),
		records.F("p_brand1", records.KindString),
	)
	const groups = 35
	years := make([][]records.Value, groups)
	brands := make([][]records.Value, groups)
	for i := range years {
		years[i] = []records.Value{records.Int(int64(1992 + i%7))}
		brands[i] = []records.Value{records.Str(fmt.Sprintf("MFGR#12%02d", i))}
	}
	newRunner := func(combining bool) *starJoinRunner {
		return &starJoinRunner{
			eng:       &Engine{feats: Features{InMapperCombining: combining}},
			sh:        &plan.Shape{Joins: make([]plan.JoinEdge, 2)},
			groupSrcs: []groupSrc{{dim: 0, aux: 0}, {dim: 1, aux: 0}},
			gschema:   gschema,
		}
	}

	b.Run("inmapper", func(b *testing.B) {
		r := newRunner(true)
		sc := r.newScratch()
		out := &encodeSink{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g := i % groups
			sc.auxRow[0], sc.auxRow[1] = years[g], brands[g]
			if err := r.emit(sc, out, float64(i)); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if err := sc.agg.flush(gschema, out); err != nil {
			b.Fatal(err)
		}
		benchSink = int64(out.n)
	})

	b.Run("scratch", func(b *testing.B) {
		r := newRunner(false)
		sc := r.newScratch()
		out := &encodeSink{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g := i % groups
			sc.auxRow[0], sc.auxRow[1] = years[g], brands[g]
			if err := r.emit(sc, out, float64(i)); err != nil {
				b.Fatal(err)
			}
		}
		benchSink = int64(out.n)
	})

	b.Run("boxed", func(b *testing.B) {
		r := newRunner(false)
		sc := r.newScratch()
		out := &encodeSink{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g := i % groups
			sc.auxRow[0], sc.auxRow[1] = years[g], brands[g]
			keyVals := make([]records.Value, len(r.groupSrcs))
			for gi, src := range r.groupSrcs {
				keyVals[gi] = sc.auxRow[src.dim][src.aux]
			}
			key := records.Make(gschema, keyVals...)
			val := records.Make(aggValueSchema, records.Float(float64(i)))
			if err := out.Collect(key, val); err != nil {
				b.Fatal(err)
			}
		}
		benchSink = int64(out.n)
	})
}

var benchSink int64
