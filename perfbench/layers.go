package main

import "time"

// layerSnap is the layers' cumulative accounting at one instant; the
// traced half reports the difference of two snapshots.
type layerSnap struct {
	sub       substrate
	jobs      int64
	serve     serveStats
	factParts int
}

func snapshotLayers(w workload) layerSnap {
	s := w.sys()
	snap := layerSnap{sub: s.substrate(), jobs: s.jobsSubmitted()}
	if sess := w.session(); sess != nil {
		snap.serve = sess.stats()
	}
	snap.factParts, _ = s.factPartitions()
	return snap
}

// layerMetric is one per-layer figure. Counts in the exact group must
// repeat exactly for one seed; the spread group depends on scheduling
// and is compared by its spread across runs.
type layerMetric struct {
	name  string
	value float64
	unit  string
	group string
}

const (
	exact  = "exact"
	spread = "spread"
)

// perLayer derives the per-layer metrics of the traced half. On the
// closed-loop workloads counts and times are per pass over the query
// set; on the serving workloads they are totals over the half.
func perLayer(name string, plain, traced *window, before, after layerSnap, st spanTimes) []layerMetric {
	div := 1.0
	if tracePasses[name] > 0 && traced.passes > 0 {
		div = float64(traced.passes)
	}
	var out []layerMetric
	add := func(n string, v float64, unit, group string) {
		out = append(out, layerMetric{n, v, unit, group})
	}
	per := func(v int64) float64 { return float64(v) / div }
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) / div }
	medUs := func(ds []time.Duration) float64 { return medianMs(ds) * 1000 }
	c := traced.sum
	sv := serveDelta(before.serve, after.serve)
	// The query path repeats exactly for one seed except on ingest-live,
	// where the reader's query count depends on how the reader and the
	// writer interleave.
	query := exact
	if name == "ingest-live" {
		query = spread
	}

	add("sql.parse_us", medUs(st.byName["sql.Parse"]), "us", spread)
	add("plan.stats_ms", medianMs(st.byName["Engine.PlanStats"]), "ms", spread)
	add("plan.choose_us", medUs(st.byName["plan.Choose"]), "us", spread)
	add("plan.kind_star", per(int64(traced.kinds["star"])), "count", query)
	add("plan.kind_staged", per(int64(traced.kinds["staged"])), "count", query)
	add("plan.kind_cascade", per(int64(traced.kinds["cascade"])), "count", query)

	add("core.run_ms", medianMs(st.runWalls), "ms", spread)
	add("core.run_self_ms", medianMs(st.runSelf), "ms", spread)
	add("core.hash_tables_built", per(c["hash_built"]), "count", spread)
	add("core.hash_build_ms", ms(time.Duration(c["hash_build_ns"])), "ms", spread)
	add("core.probe_ms", ms(time.Duration(c["probe_ns"])), "ms", spread)
	add("core.probe_rows", per(c["probe_rows"]), "count", query)
	add("core.code_probe_rows", per(c["code_probe_rows"]), "count", query)
	add("core.probe_hit_ratio", ratio(c["probe_emits"], c["probe_rows"]), "ratio", query)
	add("core.cascade_passes", per(c["cascade_passes"]), "count", query)

	add("colstore.rows_scanned", per(c["rows_scanned"]), "count", query)
	add("colstore.rows_pruned", per(c["rows_pruned"]), "count", query)
	add("colstore.rows_late_skipped", per(c["rows_late_skipped"]), "count", query)
	add("colstore.rows_bloom_skipped", per(c["rows_bloom_skipped"]), "count", query)
	add("colstore.partitions_pruned", per(c["partitions_pruned"]), "count", query)
	add("colstore.bytes_skipped", per(c["bytes_skipped"]), "bytes", query)
	add("colstore.fact_partitions", float64(after.factParts), "count", exact)

	add("mr.jobs", per(after.jobs-before.jobs), "count", query)
	add("mr.map_tasks", per(c["map_tasks"]), "count", query)
	add("mr.reduce_tasks", per(c["reduce_tasks"]), "count", query)
	add("mr.data_local_ratio", ratio(c["data_local_maps"], c["map_tasks"]), "ratio", spread)
	add("mr.map_output_records", per(c["map_output_records"]), "count", query)
	add("mr.shuffle_bytes", per(c["shuffle_bytes"]), "bytes", query)
	// Phase walls as the program's profiler attributes them. The map
	// task's wall is split among map and the phases that overlay it.
	wall := func(phases ...string) float64 {
		var d time.Duration
		for _, p := range phases {
			d += st.phaseWall[p]
		}
		return ms(d)
	}
	add("mr.queue_wait_ms", wall("queue-wait"), "ms", spread)
	add("mr.map_ms", wall("map", "read", "probe", "hash-build", "combine", "spill"), "ms", spread)
	add("mr.shuffle_ms", wall("shuffle"), "ms", spread)
	add("mr.sort_ms", wall("sort"), "ms", spread)
	add("mr.reduce_ms", wall("reduce"), "ms", spread)

	sub := func(f func(substrate) int64) float64 { return per(f(after.sub) - f(before.sub)) }
	add("hdfs.read_bytes_local", sub(func(s substrate) int64 { return s.readLocal }), "bytes", spread)
	add("hdfs.read_bytes_remote", sub(func(s substrate) int64 { return s.readRemote }), "bytes", spread)
	add("hdfs.write_bytes", sub(func(s substrate) int64 { return s.written }), "bytes", exact)
	add("cluster.model_s", (after.sub.modelTime-before.sub.modelTime).Seconds()/div, "s", spread)
	add("cluster.disk_read_bytes", sub(func(s substrate) int64 { return s.diskRead }), "bytes", spread)
	add("cluster.net_bytes", sub(func(s substrate) int64 { return s.net }), "bytes", spread)

	add("serve.admit_wait_p50_ms", medianMs(st.admitWaits), "ms", spread)
	add("serve.admit_wait_tail_ms", tailMs(st.admitWaits, tailPercentile[name]).ms, "ms", spread)
	add("serve.table_cache_hit_ratio", ratio(sv.tableHits, sv.tableHits+sv.tableMisses), "ratio", spread)
	add("serve.table_builds", float64(sv.tableBuilds), "count", spread)
	add("serve.table_evictions", float64(sv.tableEvictions), "count", spread)
	hits := sv.resultHits + sv.resultSubsumed
	add("serve.result_cache_hit_ratio", ratio(hits, hits+sv.resultMisses), "ratio", spread)
	add("serve.result_subsumed_hits", float64(sv.resultSubsumed), "count", spread)
	add("serve.rollin_ms", medianMs(st.byName["Session.RollIn"]), "ms", spread)
	add("serve.compact_ms", medianMs(st.byName["Session.CompactFact"]), "ms", spread)
	add("serve.compacted_rows", float64(sv.compactedRows), "count", exact)
	add("serve.partitions_published", float64(sv.published), "count", exact)
	add("serve.partitions_retired", float64(sv.retired), "count", exact)
	add("serve.invalidations", float64(sv.invalidations), "count", spread)

	// Tracing overhead compares the halves' queries per second on the
	// closed loops. On ingest-live the second half reads a table that is
	// larger by the first half's batches, which counts against tracing.
	// serve-mix is an open loop whose rate is fixed, so there it compares
	// the halves' median latencies instead.
	overhead := 100 * (plain.qps() - traced.qps()) / plain.qps()
	if name == "serve-mix" {
		overhead = 100 * (medianMs(traced.lat) - medianMs(plain.lat)) / medianMs(plain.lat)
	}
	add("obs.trace_overhead_pct", overhead, "%", spread)
	add("bench.generator_late_ms", maxMs(traced.late), "ms", spread)
	return out
}

func serveDelta(a, b serveStats) serveStats {
	return serveStats{
		tableHits: b.tableHits - a.tableHits, tableMisses: b.tableMisses - a.tableMisses,
		tableBuilds: b.tableBuilds - a.tableBuilds, tableEvictions: b.tableEvictions - a.tableEvictions,
		resultHits: b.resultHits - a.resultHits, resultSubsumed: b.resultSubsumed - a.resultSubsumed,
		resultMisses: b.resultMisses - a.resultMisses, compactedRows: b.compactedRows - a.compactedRows,
		published: b.published - a.published, retired: b.retired - a.retired,
		invalidations: b.invalidations - a.invalidations,
	}
}
