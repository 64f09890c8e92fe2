package main

import (
	"math"
	"sort"
)

// tailLevels are the percentile levels a latency tail may be reported at,
// in thousandths, highest first.
var tailLevels = []int{999, 990, 950, 900, 750}

// tailLevel returns the highest level of tailLevels that leaves at least ten
// of n samples beyond it; 0.5 when even p75 is not supported.
func tailLevel(n int) float64 {
	for _, k := range tailLevels {
		if n*(1000-k) >= 10*1000 {
			return float64(k) / 1000
		}
	}
	return 0.5
}

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks. xs is sorted in place; an empty
// sample yields 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// median is percentile(xs, 0.5).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (its default "exclusive"
// method), which is the rule the benchmark's spread check is stated in. It
// needs at least two samples; xs is sorted in place.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	if len(xs) < 2 {
		v := 0.0
		if len(xs) == 1 {
			v = xs[0]
		}
		return v, v, v
	}
	sort.Float64s(xs)
	ld := len(xs)
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

// ratio divides, mapping an empty denominator to 0 so no metric is NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
