package main

import (
	"math"
	"testing"
)

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Expected values are statistics.median and statistics.quantiles(n=4).
	cases := []struct {
		xs     []float64
		med    float64
		q1, q3 float64
	}{
		{xs: []float64{1, 2, 3, 4, 5}, med: 3, q1: 1.5, q3: 4.5},
		{xs: []float64{3, 1, 2}, med: 2, q1: 1, q3: 3},
		{xs: []float64{1, 2}, med: 1.5, q1: 0.75, q3: 2.25},
		{xs: []float64{5, 1, 4, 2, 3, 9, 7, 8, 6, 10}, med: 5.5, q1: 2.75, q3: 8.25},
		{xs: []float64{7}, med: 7, q1: 7, q3: 7},
	}
	for _, c := range cases {
		if got := median(c.xs); got != c.med {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.med)
		}
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestStatsDoNotReorderInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	median(xs)
	quartiles(xs)
	tailPercentile(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input reordered: %v", xs)
	}
}

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailPercentile(t *testing.T) {
	tie := ramp(100)
	for i := 90; i < 95; i++ {
		tie[i] = 90 // samples 91..95 tie with the p90 cut
	}
	cases := []struct {
		name  string
		xs    []float64
		wantQ float64
		wantV float64
	}{
		{"empty", nil, 0, math.NaN()},
		{"n=9 has no tail", ramp(9), 0, math.NaN()},
		{"n=19: p50 leaves only 9 beyond", ramp(19), 0, math.NaN()},
		{"n=20: p50 leaves 10 beyond", ramp(20), 50, 10},
		{"n=99: p90 leaves 9 beyond", ramp(99), 50, 50},
		{"n=100: p90 leaves 10 beyond", ramp(100), 90, 90},
		{"tie at the p90 cut leaves 5 beyond", tie, 50, 50},
		{"n=1000: p99 leaves 10 beyond", ramp(1000), 99, 990},
	}
	for _, c := range cases {
		q, v := tailPercentile(c.xs)
		if q != c.wantQ || (v != c.wantV && !(math.IsNaN(v) && math.IsNaN(c.wantV))) {
			t.Errorf("%s: tailPercentile = p%v %v, want p%v %v", c.name, q, v, c.wantQ, c.wantV)
		}
	}
}

func TestSummarizeOmitsMissingTail(t *testing.T) {
	s := summarize(ramp(5))
	if s.N != 5 || s.Median != 3 || s.Tail != 0 || s.TailValue != 0 {
		t.Fatalf("summarize(1..5) = %+v", s)
	}
}
