// Command perfbench is the repository's benchmark: four seeded,
// in-process workloads on the simulated cluster, each printing its
// end-to-end metrics (or, with -trace 1, its per-layer metrics) and a
// final JSON result line. See README.md for the workloads, the metrics
// and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "ssb-batch, serve-mix, ingest-live or snow-multijoin")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	spans := flag.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	w, err := newWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	length := time.Duration(*seconds) * time.Second
	var res *result
	if *trace == 1 {
		res, err = tracedRun(*name, w, *seed, length, filepath.Join(*spans, fmt.Sprintf("%s-%d.jsonl", *name, *seed)))
	} else {
		res, err = timedRun(*name, w, *seed, length)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func header(name string, w workload, seed uint64, length time.Duration, traced bool) {
	fmt.Printf("workload %s  seed %d  window %s  traced %v\n", name, seed, length, traced)
	fmt.Printf("GOMAXPROCS %d  nproc %d  %s  %s\n", runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), clusterProfile)
	fmt.Printf("data: %s\n", w.sizes())
}

// setups is how many times a run sets its workload up, warm-up
// included; setup_s is the median.
const setups = 3

// setUp sets the workload up and warms it, setups times, keeping the
// last, and returns each set-up's time in seconds.
func setUp(w workload, seed uint64) ([]float64, error) {
	var times []float64
	for i := 0; i < setups; i++ {
		if i > 0 {
			w.close()
			runtime.GC()
		}
		start := time.Now()
		if err := w.setup(seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if err := w.warm(); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return times, nil
}

// timedRun is the untraced run: set-ups with their warm-ups, one
// measured window, then the answer checks. It reports the end-to-end
// metrics.
func timedRun(name string, w workload, seed uint64, length time.Duration) (*result, error) {
	setupS, err := setUp(w, seed)
	if err != nil {
		return nil, err
	}
	defer w.close()
	header(name, w, seed, length, false)
	runtime.GC()
	t1 := time.Now()
	win := w.run(nil, extent{length: length, phase: -1, seed: seed})
	t2 := time.Now()
	res, checked := checkedResult(w, win)
	fmt.Printf("phases: window %.1fs  check %.1fs\n", t2.Sub(t1).Seconds(), time.Since(t2).Seconds())
	tl := tailMs(win.lat, tailPercentile[name])
	put := func(key string, v float64, unit, note string) {
		res.Metrics[key] = metric{Value: v, Unit: unit}
		fmt.Printf("  %-22s %14.4f %-6s %s\n", key, v, unit, note)
	}
	fmt.Println("end-to-end (gated):")
	put("setup_s", medianF(setupS), "s", fmt.Sprintf("median of %d set-ups: %.3f", len(setupS), setupS))
	put("qps", win.qps(), "1/s", fmt.Sprintf("%d queries in %.2fs", len(win.lat), win.elapsed.Seconds()))
	put("query_p50_ms", medianMs(win.lat), "ms", "")
	put("query_tail_ms", tl.ms, "ms", tl.String())

	fmt.Println("end-to-end (reported):")
	show := func(key string, v float64, unit, note string) {
		fmt.Printf("  %-22s %14.4f %-6s %s\n", key, v, unit, note)
	}
	show("failed_ratio", ratio(res.Failed, res.Attempted), "ratio",
		fmt.Sprintf("%d of %d operations, %d answers checked", res.Failed, res.Attempted, checked))
	switch name {
	case "serve-mix":
		inter, rep := win.class["interactive"], win.class["reporting"]
		show("interactive_p50_ms", medianMs(inter), "ms", "")
		t := tailMs(inter, interactiveTail)
		show("interactive_tail_ms", t.ms, "ms", t.String())
		show("reporting_p50_ms", medianMs(rep), "ms", fmt.Sprintf("%d samples", len(rep)))
		show("slo_attainment", ratio(win.sloMet, win.sloTotal), "ratio",
			fmt.Sprintf("%d of %d interactive within %s", win.sloMet, win.sloTotal, interactiveSLO))
		show("generator_late_ms", maxMs(win.late), "ms", "max lateness of the open loop")
	case "ingest-live":
		show("ingest_rows_per_s", float64(win.acked)/win.writeTime.Seconds(), "1/s",
			fmt.Sprintf("%d rows acknowledged in %.2fs", win.acked, win.writeTime.Seconds()))
		show("rollin_p50_ms", medianMs(win.rollins), "ms", fmt.Sprintf("%d batches", len(win.rollins)))
	}
	return res, nil
}

// checkedResult counts the windows' operations, runs the workload's
// answer checks and returns the result with the number of answers
// checked. A failed operation or a wrong answer makes the run incorrect.
func checkedResult(w workload, wins ...*window) (*result, int) {
	res := &result{Metrics: map[string]metric{}}
	for _, win := range wins {
		res.Attempted += win.attempted
		res.Failed += win.failed
	}
	checked, err := w.check()
	res.Attempted += int64(checked)
	if err != nil {
		fmt.Printf("check failed: %v\n", err)
		res.Failed++
		res.Attempted++
	}
	res.Correct = res.Failed == 0
	return res, checked
}

func maxMs(ds []time.Duration) float64 {
	var m time.Duration
	for _, d := range ds {
		if d > m {
			m = d
		}
	}
	return float64(m) / float64(time.Millisecond)
}

// tracedRun sets up once, measures the layers (see measureLayers),
// checks the answers and reports the per-layer metrics.
func tracedRun(name string, w workload, seed uint64, length time.Duration, spanFile string) (*result, error) {
	if err := w.setup(seed); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer w.close()
	header(name, w, seed, length, true)
	if err := w.warm(); err != nil {
		return nil, err
	}
	rec := newRecorder()
	plain, traced, layers := measureLayers(name, w, seed, length, rec)
	res, _ := checkedResult(w, plain, traced)
	fmt.Printf("per-layer (traced half; %s):\n", unitOfWork(name, traced))
	for _, m := range layers {
		res.Metrics[m.name] = metric{Value: m.value, Unit: m.unit}
		fmt.Printf("  %-30s %16.4f %-6s %s\n", m.name, m.value, m.unit, m.group)
	}
	if spanFile != "" {
		all := rec.Spans()
		if err := writeSpanFile(spanFile, all); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("%d spans written to %s\n", len(all), spanFile)
	}
	return res, nil
}

// measureLayers runs two halves of the same fixed work on a set-up,
// warmed workload: the first untraced, the second with the program's
// tracing on and every span recorded in rec. It derives the per-layer
// metrics from the traced half; the untraced half gives the tracing
// overhead.
func measureLayers(name string, w workload, seed uint64, length time.Duration, rec *recorder) (plain, traced *window, layers []layerMetric) {
	half := extent{length: length / 2, passes: tracePasses[name], seed: seed}
	runtime.GC()
	plain = w.run(nil, half)
	w.sys().traceOn(rec)
	runtime.GC()
	before := snapshotLayers(w)
	half.phase = 1
	traced = w.run(rec, half)
	after := snapshotLayers(w)
	return plain, traced, perLayer(name, plain, traced, before, after, summarize(rec.Spans()))
}

func unitOfWork(name string, w *window) string {
	if p := tracePasses[name]; p > 0 {
		return fmt.Sprintf("counts and times per pass, %d passes", w.passes)
	}
	return "totals over the half"
}
