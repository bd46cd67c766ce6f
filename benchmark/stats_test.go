package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// TestQuartiles pins the values Python's statistics.quantiles(xs, n=4)
// returns for the same inputs.
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{7}, [3]float64{7, 7, 7}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{0.70, 0.69, 0.71, 0.68, 0.70, 0.72, 0.69, 0.70, 0.71, 0.69}, [3]float64{0.69, 0.70, 0.71}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
				break
			}
		}
	}
}

// TestTailPercentile checks the rule: the highest ladder percentile with at
// least ten samples beyond it, falling back to the median.
func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1, 50}, {19, 50}, {20, 50}, {39, 50}, {40, 75},
		{99, 75}, {100, 90}, {199, 90}, {200, 95}, {420, 95},
		{1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
		// By construction at least ten samples lie beyond the percentile,
		// unless it is the median fallback.
		if p := tailPercentile(tc.n); p > 50 && tc.n*(1000-int(math.Round(p*10))) < 10*1000 {
			t.Errorf("tailPercentile(%d) = %v leaves fewer than 10 samples beyond it", tc.n, p)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	for _, tc := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {95, 95}, {99, 99}, {100, 100}, {0, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean = %v, want 4", got)
	}
	if got := geomean([]float64{2, 0}); got != 0 {
		t.Errorf("geomean with a zero = %v, want 0", got)
	}
}
