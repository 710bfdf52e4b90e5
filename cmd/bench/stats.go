package main

import "sort"

// quartiles returns the first quartile, median and third quartile of v by
// the exclusive method — the one Python's statistics.quantiles(v, n=4)
// uses, so the spreads -compare judges are the spreads an outside checker
// computes from the same samples (stats.Quantile interpolates inclusively
// and would not). A single sample is its own quartiles; an empty slice
// yields zeros.
func quartiles(v []float64) (q1, med, q3 float64) {
	n := len(v)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return v[0], v[0], v[0]
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - 4*j // outside [0, 4] it extrapolates, as Python does
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}
