package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailBeyond is how many samples must lie beyond a reported tail value.
const tailBeyond = 10

func sortedMs(ds []time.Duration) []float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(xs)
	return xs
}

// Latency percentiles use the Harrell-Davis estimator: a weighted mean
// of all order statistics, with Beta((n+1)p, (n+1)(1-p)) weights. A
// workload mixes query types whose latencies form separate clusters; the
// plain sample median jumps between two clusters on a small shift, while
// this estimator moves smoothly.
func quantileMs(ds []time.Duration, p float64) float64 {
	xs := sortedMs(ds)
	n := len(xs)
	if n == 0 {
		return 0
	}
	a, b := float64(n+1)*p, float64(n+1)*(1-p)
	var sum, prev float64
	for i := 1; i <= n; i++ {
		cur := 1.0
		if i < n {
			cur = regIncBeta(a, b, float64(i)/float64(n))
		}
		sum += (cur - prev) * xs[i-1]
		prev = cur
	}
	return sum
}

// median of samples in milliseconds; 0 for none.
func medianMs(ds []time.Duration) float64 { return quantileMs(ds, 0.5) }

// tailPercentile is each workload's tail: the highest of p75, p90, p95,
// p97.5 and p99 that leaves at least tailBeyond samples beyond it in a window of
// the benchmark's length. It is fixed per workload, so that a faster
// program, which completes more queries, is not measured at a higher
// percentile. serve-mix is the exception: its highest, p97.5, falls at
// the edge of the 24 reporting queries that queue behind the other two of
// their burst, where a small shift moves it far; p90 lies inside the rest
// of the reporting class.
var tailPercentile = map[string]float64{
	"ssb-batch":      90,
	"serve-mix":      90,
	"ingest-live":    97.5,
	"snow-multijoin": 75,
}

// interactiveTail is the tail of serve-mix's interactive class, the
// highest with tailBeyond of its 376 samples in a 10 s window beyond it.
const interactiveTail = 95

// tail is a tail percentile with the samples it rests on.
type tail struct {
	ms, percentile float64
	n, beyond      int
}

func tailMs(ds []time.Duration, percentile float64) tail {
	n := len(ds)
	return tail{ms: quantileMs(ds, percentile/100), percentile: percentile, n: n,
		beyond: int(float64(n) * (1 - percentile/100))}
}

func (t tail) String() string {
	s := fmt.Sprintf("p%g of %d samples, %d beyond", t.percentile, t.n, t.beyond)
	if t.beyond < tailBeyond {
		s += fmt.Sprintf(" (fewer than %d: the window is too short for this tail)", tailBeyond)
	}
	return s
}

// regIncBeta is the regularized incomplete beta function I_x(a, b),
// evaluated by its continued fraction.
func regIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction of the incomplete beta function
// by the modified Lentz method.
func betaCF(a, b, x float64) float64 {
	const tiny, eps = 1e-300, 1e-14
	c, d := 1.0, 1-(a+b)*x/(a+1)
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= 300; m++ {
		fm := float64(m)
		for _, num := range []float64{
			fm * (b - fm) * x / ((a + 2*fm - 1) * (a + 2*fm)),
			-(a + fm) * (a + b + fm) * x / ((a + 2*fm) * (a + 2*fm + 1)),
		} {
			d = 1 + num*d
			if math.Abs(d) < tiny {
				d = tiny
			}
			c = 1 + num/c
			if math.Abs(c) < tiny {
				c = tiny
			}
			d = 1 / d
			h *= d * c
		}
		if math.Abs(d*c-1) < eps {
			break
		}
	}
	return h
}

func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
