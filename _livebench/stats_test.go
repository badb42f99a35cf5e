package main

import "testing"

func seq(n int) dist {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return newDist(xs)
}

// A percentile is only reported as measured when at least minBeyond
// samples lie above it.
func TestQuantileTenBeyondRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // exactly ten above
		{999, 0.99, 990, false}, // nine above
		{5000, 0.99, 4950, true},
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
		{0, 0.50, 0, false},
	} {
		got, ok := seq(tc.n).quantile(tc.q)
		if got != tc.want || ok != tc.ok {
			t.Errorf("n=%d q=%v: got (%v, %v), want (%v, %v)", tc.n, tc.q, got, ok, tc.want, tc.ok)
		}
	}
	if got := minSamples(0.99); got != 1000 {
		t.Errorf("minSamples(0.99) = %d, want 1000", got)
	}
	if got := minSamples(0.50); got != 20 {
		t.Errorf("minSamples(0.50) = %d, want 20", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}
