package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of xs the
// way Python's statistics.quantiles(xs, n=4) computes them (the "exclusive"
// method), so -compare reads spreads exactly as the acceptance rule does. A
// single value is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := sorted(xs)
	n := len(d)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q(1), median(d), q(3)
}

// median returns the middle of xs (the mean of the two middle values for an
// even count).
func median(xs []float64) float64 {
	d := sorted(xs)
	n := len(d)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between closest ranks.
func percentile(xs []float64, p float64) float64 {
	d := sorted(xs)
	if len(d) == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(len(d)-1)
	lo := int(math.Floor(pos))
	if lo >= len(d)-1 {
		return d[len(d)-1]
	}
	frac := pos - float64(lo)
	return d[lo]*(1-frac) + d[lo+1]*frac
}

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

func sorted(xs []float64) []float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	return d
}
