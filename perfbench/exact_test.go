package main

import (
	"testing"
	"time"
)

// TestExactCountsRepeat measures each workload's layers twice on one
// seed and requires every count of the exact group to repeat exactly.
func TestExactCountsRepeat(t *testing.T) {
	const seed = 7
	for _, name := range []string{"ssb-batch", "serve-mix", "ingest-live", "snow-multijoin"} {
		t.Run(name, func(t *testing.T) {
			var runs [2]map[string]float64
			for i := range runs {
				w, err := newWorkload(name)
				if err != nil {
					t.Fatal(err)
				}
				if err := w.setup(seed); err != nil {
					t.Fatal(err)
				}
				if err := w.warm(); err != nil {
					w.close()
					t.Fatal(err)
				}
				_, traced, layers := measureLayers(name, w, seed, 2*time.Second, newRecorder())
				w.close()
				if traced.failed > 0 {
					t.Fatalf("run %d: %d of %d operations failed", i, traced.failed, traced.attempted)
				}
				runs[i] = map[string]float64{}
				for _, m := range layers {
					if m.group == exact {
						runs[i][m.name] = m.value
					}
				}
			}
			if len(runs[0]) == 0 {
				t.Fatal("no exact counts")
			}
			for k, v := range runs[0] {
				if runs[1][k] != v {
					t.Errorf("%s: %v then %v", k, v, runs[1][k])
				}
			}
		})
	}
}

func TestQuantileEstimator(t *testing.T) {
	var ds []time.Duration
	for i := 1; i <= 101; i++ {
		ds = append(ds, time.Duration(i)*time.Millisecond)
	}
	if got := medianMs(ds); got < 50.9 || got > 51.1 {
		t.Errorf("median of 1..101 ms = %v", got)
	}
	if got := regIncBeta(2, 3, 0.4); got < 0.5248-1e-4 || got > 0.5248+1e-4 {
		t.Errorf("I_0.4(2,3) = %v, want 0.5248", got)
	}
	if tl := tailMs(ds, 90); tl.ms < 89 || tl.ms > 93 || tl.beyond != 10 {
		t.Errorf("p90 tail = %+v", tl)
	}
}
