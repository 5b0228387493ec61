package main

import (
	"math"
	"sort"
)

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minTail is how many samples must lie beyond a percentile before it is
// reported.
const minTail = 10

// percentile returns the nearest-rank p-th percentile of xs, and whether at
// least minTail samples lie beyond it; a percentile without that many is
// not reported.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := nearestRank(n, p)
	return s[rank-1], n-rank >= minTail
}

// nearestRank is the 1-based rank of the p-th percentile of n samples. The
// epsilon keeps binary rounding of p (99.9 is not exact) from adding a rank.
func nearestRank(n int, p float64) int {
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(rank, 1), n)
}

// highestPercentile returns the highest of the candidate percentiles that
// has at least minTail samples beyond it, or 0 when none has.
func highestPercentile(n int, candidates []float64) float64 {
	best := 0.0
	for _, p := range candidates {
		if n > 0 && n-nearestRank(n, p) >= minTail && p > best {
			best = p
		}
	}
	return best
}
