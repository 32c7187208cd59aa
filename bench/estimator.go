package main

import (
	"math"
	"sort"
)

// perOpMin folds rounds into one series: x[i] is the smallest value any
// round measured for op i. Every round runs the same op list, so the
// minimum is the op's cost on the quietest machine it met; a slow phase
// of the box has to cover the same op in every round to show.
func perOpMin(rounds [][]float64) []float64 {
	if len(rounds) == 0 {
		return nil
	}
	out := append([]float64(nil), rounds[0]...)
	for _, r := range rounds[1:] {
		for i, v := range r {
			if i < len(out) && v < out[i] {
				out[i] = v
			}
		}
	}
	return out
}

// percentile returns the p-th percentile (0 < p < 100) of xs by the
// nearest-rank rule on a sorted copy.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tailSamples is how many samples must lie beyond a reported
// percentile: every workload runs enough ops for latency_p95_ms.
const tailSamples = 10

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// median is the middle value, the mean of the two middle values when
// len(xs) is even (Python's statistics.median).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// iqrShare is the distance between the first and third quartile as a
// share of the median — the spread the acceptance rule bounds. The
// quartiles follow Python's statistics.quantiles(values, n=4)
// (exclusive method), the implementation the driver uses.
func iqrShare(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		m := len(s) + 1
		j := k * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(k*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := q(2)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}
