package main

import (
	"math"
	"sort"
)

// summary describes one host metric over a run's timed reps: the
// median, the quartiles and the sample count, plus the highest
// percentile that still has at least tailMin samples beyond it (Tail is
// 0 with TailValue NaN when the run has too few reps for any).
type summary struct {
	N         int       `json:"n"`
	Median    float64   `json:"median"`
	Q1        float64   `json:"q1"`
	Q3        float64   `json:"q3"`
	Tail      float64   `json:"tail_pct,omitempty"`
	TailValue float64   `json:"tail_value,omitempty"`
	Samples   []float64 `json:"samples"`
}

// tailMin is how many samples must lie beyond a percentile before it is
// reported: fewer make the percentile a statement about one outlier.
const tailMin = 10

// tailLadder are the percentiles a tail may be reported at, lowest first.
var tailLadder = []float64{50, 90, 99, 99.9}

func summarize(xs []float64) summary {
	s := summary{N: len(xs), Samples: xs}
	if len(xs) == 0 {
		return s
	}
	s.Median = median(xs)
	s.Q1, s.Q3 = quartiles(xs)
	s.Tail, s.TailValue = tailPercentile(xs)
	if s.Tail == 0 {
		s.TailValue = 0
	}
	return s
}

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the middle sample, or the mean of the middle two; 0 when
// there are none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile by the exclusive
// method of Python's statistics.quantiles(xs, n=4), so the spread the
// benchmark reports is the spread a reader recomputes from its samples.
// A single sample is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		m := i * (n + 1)
		j := max(1, min(m/4, n-1))
		delta := float64(m - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// percentile is the nearest-rank percentile: the smallest sample with at
// least q% of the set at or below it.
func percentile(s []float64, q float64) float64 {
	rank := int(math.Ceil(q / 100 * float64(len(s))))
	rank = max(1, min(rank, len(s)))
	return s[rank-1]
}

// tailPercentile returns the highest ladder percentile whose
// nearest-rank value has at least tailMin samples strictly above it, and
// that value. Ties at the cut count as not beyond it, so a run of equal
// samples can push the report down a rung. It returns (0, NaN) when no
// rung qualifies, which is always the case below tailMin+1 samples.
func tailPercentile(xs []float64) (q, v float64) {
	s := sorted(xs)
	q, v = 0, math.NaN()
	if len(s) <= tailMin {
		return q, v
	}
	for _, p := range tailLadder {
		cut := percentile(s, p)
		beyond := len(s) - sort.Search(len(s), func(i int) bool { return s[i] > cut })
		if beyond >= tailMin {
			q, v = p, cut
		}
	}
	return q, v
}
