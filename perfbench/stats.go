package main

import (
	"fmt"
	"math"
	"sort"
)

// tailCandidates are the percentiles a tail figure may fall back to, highest
// first: a percentile is only reported when at least minBeyond samples lie
// beyond it, so with few samples the figure named p99 is honestly a lower
// percentile, and the sample count says so.
var tailCandidates = []float64{99, 95, 90, 75, 50}

const minBeyond = 10

// dist is a latency distribution summary. Failed operations enter as +Inf:
// they miss every latency limit.
type dist struct {
	N       int
	P50     float64
	Tail    float64 // value at TailPct
	TailPct float64 // the highest candidate percentile with >= minBeyond samples beyond it
}

// quantileSorted returns the nearest-rank q-quantile (0 < q <= 1) of an
// ascending slice.
func quantileSorted(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(q*float64(len(xs)))) - 1
	if k < 0 {
		k = 0
	}
	return xs[k]
}

// beyond counts the samples strictly above the nearest-rank p-th
// percentile's position.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// summarize sorts xs in place and summarizes it.
func summarize(xs []float64) dist {
	sort.Float64s(xs)
	d := dist{N: len(xs), P50: quantileSorted(xs, 0.5), Tail: math.NaN()}
	for _, p := range tailCandidates {
		if beyond(len(xs), p) >= minBeyond {
			d.TailPct = p
			d.Tail = quantileSorted(xs, p/100)
			break
		}
	}
	return d
}

func (d dist) String() string {
	return fmt.Sprintf("p50 %.4g, p%g %.4g (n=%d)", d.P50, d.TailPct, d.Tail, d.N)
}

// median returns the median of xs without modifying it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, 0.5)
}

// mean returns the arithmetic mean of xs (NaN when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// finite replaces non-finite values (a distribution with failures in its
// tail) by -1 so the result line stays valid JSON; such a run is also
// reported as incorrect.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return -1
	}
	return v
}
