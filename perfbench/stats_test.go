package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{100, 90, 90, true},   // 10 samples beyond
		{99, 90, 90, false},   // rank 90 of 99: 9 beyond
		{100, 50, 50, true},   // nearest rank
		{1000, 99, 990, true}, // 10 beyond
		{1000, 99.9, 999, false},
		{11, 0, 1, true},
	} {
		got, ok := percentile(seq(tc.n), tc.p)
		if got != tc.want || ok != tc.ok {
			t.Errorf("p%g of %d samples = %g, %v; want %g, %v", tc.p, tc.n, got, ok, tc.want, tc.ok)
		}
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("a percentile of no samples was reportable")
	}
}

func TestHighestPercentile(t *testing.T) {
	cands := []float64{50, 90, 99, 99.9}
	for n, want := range map[int]float64{10: 0, 20: 50, 100: 90, 999: 90, 1000: 99, 10000: 99.9} {
		if got := highestPercentile(n, cands); got != want {
			t.Errorf("highestPercentile(%d) = %g, want %g", n, got, want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}
