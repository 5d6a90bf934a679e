package main

import (
	"math"
	"sort"
)

// tailLadder is the percentile ladder the tail metric climbs, lowest
// first. A percentile qualifies only when at least minBeyond samples lie
// above it, so a tail figure is never read off one or two outliers.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

const minBeyond = 10

// tailPercentile returns the highest ladder percentile with at least
// minBeyond of n samples beyond it, and false when even the median has
// fewer (then no tail is reported).
func tailPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range tailLadder {
		// In per-mille, so 99.9 is exact: n·(1-p) >= minBeyond.
		pm := int(math.Round(p * 10))
		if n*(1000-pm) >= minBeyond*1000 {
			best, ok = p, true
		}
	}
	return best, ok
}

// percentile is the nearest-rank p-th percentile of xs (p in [0,100]).
// xs need not be sorted; it is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s))/100-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median is the middle value of xs, averaging the two middle values of an
// even-length sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean is the arithmetic mean of xs (0 for an empty sample).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// latencySummary is the median and tail of a latency sample, with the
// percentile the tail was read at and the sample count.
type latencySummary struct {
	N      int     `json:"n"`
	P50    float64 `json:"p50_ms"`
	TailP  float64 `json:"tail_percentile"`
	Tail   float64 `json:"tail_ms"`
	Max    float64 `json:"max_ms"`
	Beyond int     `json:"samples_beyond_tail"`
}

// summarize reads the median and the tail of a latency sample, the tail at
// the highest percentile with minBeyond samples beyond it.
func summarize(ms []float64) latencySummary {
	s := latencySummary{N: len(ms), P50: percentile(ms, 50), Max: percentile(ms, 100)}
	if p, ok := tailPercentile(len(ms)); ok {
		s.TailP, s.Tail = p, percentile(ms, p)
	} else {
		// Too few samples for any tail: report the median as the tail so
		// the metric stays defined, and say so through TailP = 50 with
		// fewer than minBeyond samples beyond it.
		s.TailP, s.Tail = 50, s.P50
	}
	for _, x := range ms {
		if x > s.Tail {
			s.Beyond++
		}
	}
	return s
}
