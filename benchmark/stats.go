package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between the two nearest ranks; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return s[lo] + (s[hi]-s[lo])*(rank-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// geomean returns the geometric mean of the positive values in xs; 0 when
// there are none.
func geomean(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), so -compare sees
// the spread the driver sees. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	at := func(i int) float64 { // i-th of 4 cut points
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// kindStat groups per-operation latencies by statement and applies stat
// (median, geomean) to each group.
func kindStat(kinds []int, lat []float64, stat func([]float64) float64) map[int]float64 {
	by := map[int][]float64{}
	for i, k := range kinds {
		by[k] = append(by[k], lat[i])
	}
	out := make(map[int]float64, len(by))
	for k, v := range by {
		out[k] = stat(v)
	}
	return out
}

// slowdowns normalises every latency by its kind's median: a tail
// computed over these compares like with like across statements whose
// medians differ by two orders of magnitude.
func slowdowns(kinds []int, lat []float64) []float64 {
	med := kindStat(kinds, lat, median)
	out := make([]float64, 0, len(lat))
	for i, k := range kinds {
		if m := med[k]; m > 0 {
			out = append(out, lat[i]/m)
		}
	}
	return out
}

func mapValues(m map[int]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}
