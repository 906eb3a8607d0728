package bench

import (
	"encoding/json"
	"fmt"
	"io"

	"clydesdale/internal/cluster"
	"clydesdale/internal/core"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/mr"
	"clydesdale/internal/ssb"
)

// ProbeBenchConfig records the shape of the run a probe baseline came from;
// comparisons are only meaningful between identical configs.
type ProbeBenchConfig struct {
	FactRows int64   `json:"fact_rows"`
	DimScale float64 `json:"dim_scale"`
	Workers  int     `json:"workers"`
	Seed     uint64  `json:"seed"`
	Features string  `json:"features"`
}

// ProbeQueryStats is one query's probe-path measurements. ProbeNs and
// HashBuildNs are per-task wall times summed over tasks, not CPU time:
// ProbeNs is each map task's wall time in its probe thread pool (the
// threads' read, decode, filter, probe and combine loops, running in
// parallel), HashBuildNs each task's serial hash-table build. NsPerRow
// (ProbeNs / ProbeRows) is the per-fact-row cost of the §4.2 hash-join
// inner loop and the number to watch for regressions.
type ProbeQueryStats struct {
	Query       string `json:"query"`
	TotalNs     int64  `json:"total_ns"`
	ProbeNs     int64  `json:"probe_ns"`
	HashBuildNs int64  `json:"hash_build_ns"`
	ProbeRows   int64  `json:"probe_rows"`
	ProbeEmits  int64  `json:"probe_emits"`
	// CodeProbeRows counts row×dimension probes answered by a dictionary
	// side table (array index) instead of the hash loop; CodeSideTables is
	// how many such tables were built (cache misses).
	CodeProbeRows  int64   `json:"code_probe_rows"`
	CodeSideTables int64   `json:"code_side_tables"`
	NsPerRow       float64 `json:"ns_per_row"`
}

// ProbeBenchResult is the payload of BENCH_probe.json: a per-query probe
// cost baseline (see EXPERIMENTS.md for how to read and refresh it).
type ProbeBenchResult struct {
	Config  ProbeBenchConfig  `json:"config"`
	Queries []ProbeQueryStats `json:"queries"`
}

// WriteJSON writes the result as indented JSON.
func (r *ProbeBenchResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// RunProbeBench measures the probe hot path end to end on every SSB query:
// a small unthrottled cluster (no modeled I/O slowdown, no task-launch
// sleeps beyond the engine defaults), one warm-up run per query so
// dimension caches and the JIT-warm path don't pollute the measured run.
// The scan-side row killers (zone-map pruning, late materialization, bloom
// pushdown) are disabled so every fact row reaches the probe — that keeps
// probe_rows = fact rows × 1 and ns/row comparable across queries instead
// of a noisy ratio over whatever survived the scan. Code-space execution
// stays on: dictionary columns still carry their codes into the probe, so
// the side-table path is part of what this baseline measures. The
// interesting outputs are CPU costs per fact row, which the simulator
// measures directly in the probe loop, so they track the real data-path
// code being benchmarked, not the modeled cluster.
func RunProbeBench(factRows int64, workers int, seed uint64, w io.Writer) (*ProbeBenchResult, error) {
	if factRows <= 0 {
		factRows = 120_000
	}
	if workers <= 0 {
		workers = 4
	}
	gen := ssb.NewBenchGenerator(1, factRows, seed)
	c := cluster.New(cluster.Testing(workers))
	fs := hdfs.New(c, hdfs.Options{BlockSize: 256 << 10, Seed: int64(seed)})
	lay, err := ssb.Load(fs, gen, "/ssb", ssb.LoadOptions{SkipRC: true})
	if err != nil {
		return nil, err
	}
	if _, err := core.EnsureCatalogCached(fs, lay.Catalog()); err != nil {
		return nil, err
	}
	eng := core.New(mr.NewEngine(c, fs, mr.Options{}), lay.Catalog(), core.Options{
		NoScanPruning:         true,
		NoLateMaterialization: true,
		NoBloomPushdown:       true,
	})

	out := &ProbeBenchResult{Config: ProbeBenchConfig{
		FactRows: factRows,
		DimScale: 1,
		Workers:  workers,
		Seed:     seed,
		Features: "probe-only (pruning, late-mat, bloom off; code-space on)",
	}}
	if w != nil {
		fmt.Fprintf(w, "probe-path baseline: %d fact rows, %d workers\n", factRows, workers)
		fmt.Fprintf(w, "%-6s %12s %12s %12s %10s %10s %10s %9s\n",
			"Query", "total_ns", "probe_ns", "build_ns", "rows", "emits", "code_rows", "ns/row")
	}
	for _, q := range ssb.Queries() {
		if _, err := runStar(eng, q); err != nil { // warm-up
			return nil, fmt.Errorf("bench: probe warm-up %s: %w", q.Name, err)
		}
		rep, err := runStar(eng, q)
		if err != nil {
			return nil, fmt.Errorf("bench: probe %s: %w", q.Name, err)
		}
		ctr := rep.Job.Counters
		st := ProbeQueryStats{
			Query:          q.Name,
			TotalNs:        rep.Total.Nanoseconds(),
			ProbeNs:        ctr.Get(core.CtrProbeNanos),
			HashBuildNs:    ctr.Get(core.CtrHashBuildNanos),
			ProbeRows:      ctr.Get(core.CtrProbeRows),
			ProbeEmits:     ctr.Get(core.CtrProbeEmits),
			CodeProbeRows:  ctr.Get(core.CtrCodeProbeRows),
			CodeSideTables: ctr.Get(core.CtrCodeSideTables),
		}
		if st.ProbeRows > 0 {
			st.NsPerRow = float64(st.ProbeNs) / float64(st.ProbeRows)
		}
		out.Queries = append(out.Queries, st)
		if w != nil {
			fmt.Fprintf(w, "%-6s %12d %12d %12d %10d %10d %10d %9.1f\n",
				st.Query, st.TotalNs, st.ProbeNs, st.HashBuildNs,
				st.ProbeRows, st.ProbeEmits, st.CodeProbeRows, st.NsPerRow)
		}
	}
	return out, nil
}
