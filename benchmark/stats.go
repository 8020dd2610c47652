package main

import "sort"

// quantileSorted returns the q-quantile of sorted values by linear
// interpolation between the two nearest ranks; 0 for no values.
func quantileSorted(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	f := pos - float64(lo)
	return xs[lo]*(1-f) + xs[lo+1]*f
}

func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), because that
// is how the benchmark's bounds are judged. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the distance between the quartiles as a share of the median;
// 0 when there are too few values to have quartiles.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / m
}
