// Package stats provides the summary statistics and regression fits the
// experiment harness uses to compare measured convergence times against the
// paper's asymptotic bounds.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance (0 for fewer than 2 values).
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the minimum of xs (0 for empty input).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs (0 for empty input).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It copies and sorts internally.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the 0.5-quantile.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// MeanCI95 returns the mean and the half-width of a normal-approximation
// 95% confidence interval for it.
func MeanCI95(xs []float64) (mean, halfWidth float64) {
	mean = Mean(xs)
	if len(xs) < 2 {
		return mean, 0
	}
	se := StdDev(xs) / math.Sqrt(float64(len(xs)))
	return mean, 1.96 * se
}

// Summary bundles the standard summary of a sample.
type Summary struct {
	N      int
	Mean   float64
	CI95   float64 // half-width of the 95% CI on the mean
	StdDev float64
	Min    float64
	Median float64
	Max    float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	mean, ci := MeanCI95(xs)
	return Summary{
		N:      len(xs),
		Mean:   mean,
		CI95:   ci,
		StdDev: StdDev(xs),
		Min:    Min(xs),
		Median: Median(xs),
		Max:    Max(xs),
	}
}

// String renders "mean ± ci [min, max]".
func (s Summary) String() string {
	return fmt.Sprintf("%.1f ± %.1f [%.0f, %.0f]", s.Mean, s.CI95, s.Min, s.Max)
}

// KSTwoSample returns the two-sample Kolmogorov–Smirnov statistic D — the
// largest gap between the two empirical distribution functions — and its
// asymptotic p-value Q(√(nm/(n+m))·D), where Q is the Kolmogorov
// distribution's tail. Ties within and across the samples are handled
// exactly; on discrete data the p-value is conservative. It panics if
// either sample is empty.
func KSTwoSample(a, b []float64) (d, p float64) {
	if len(a) == 0 || len(b) == 0 {
		panic("stats: KSTwoSample needs two non-empty samples")
	}
	x := append([]float64(nil), a...)
	y := append([]float64(nil), b...)
	sort.Float64s(x)
	sort.Float64s(y)
	n, m := float64(len(x)), float64(len(y))
	for i, j := 0, 0; i < len(x) && j < len(y); {
		v := min(x[i], y[j])
		for i < len(x) && x[i] == v {
			i++
		}
		for j < len(y) && y[j] == v {
			j++
		}
		d = max(d, math.Abs(float64(i)/n-float64(j)/m))
	}
	return d, kolmogorovQ(math.Sqrt(n*m/(n+m)) * d)
}

// kolmogorovQ returns P(K > lambda) for the Kolmogorov distribution:
// 2 Σ_{j≥1} (−1)^(j−1) exp(−2j²λ²), which is 1 at λ = 0.
func kolmogorovQ(lambda float64) float64 {
	if lambda < 0.2 {
		return 1 // the series converges slowly here; Q > 1 − 1e-12
	}
	q, sign := 0.0, 1.0
	for j := 1.0; j <= 100; j++ {
		term := sign * 2 * math.Exp(-2*j*j*lambda*lambda)
		q += term
		if math.Abs(term) < 1e-16 {
			break
		}
		sign = -sign
	}
	return min(max(q, 0), 1)
}

// LinearFit returns the least-squares slope and intercept of y against x,
// plus the coefficient of determination R². It panics if the lengths differ
// or fewer than 2 points are given.
func LinearFit(x, y []float64) (slope, intercept, r2 float64) {
	if len(x) != len(y) {
		panic("stats: LinearFit length mismatch")
	}
	if len(x) < 2 {
		panic("stats: LinearFit needs at least 2 points")
	}
	mx, my := Mean(x), Mean(y)
	var sxx, sxy, syy float64
	for i := range x {
		dx := x[i] - mx
		dy := y[i] - my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		panic("stats: LinearFit with constant x")
	}
	slope = sxy / sxx
	intercept = my - slope*mx
	if syy == 0 {
		return slope, intercept, 1
	}
	r2 = sxy * sxy / (sxx * syy)
	return slope, intercept, r2
}

// LogLogSlope fits log(y) = a·log(x) + b and returns the exponent a with
// R². This estimates the polynomial order of a scaling curve: convergence
// times growing as n·polylog(n) fit exponents slightly above 1; Θ(n²)
// growth fits exponents near 2. All inputs must be positive.
func LogLogSlope(x, y []float64) (exponent, r2 float64) {
	lx := make([]float64, len(x))
	ly := make([]float64, len(y))
	for i := range x {
		if x[i] <= 0 || y[i] <= 0 {
			panic("stats: LogLogSlope requires positive data")
		}
		lx[i] = math.Log(x[i])
		ly[i] = math.Log(y[i])
	}
	slope, _, r2 := LinearFit(lx, ly)
	return slope, r2
}

// NLogN is the scaling function n·ln n (ln clamped below at 1).
func NLogN(n float64) float64 { return n * clampLog(n) }

// NLog2N is the scaling function n·ln² n.
func NLog2N(n float64) float64 { l := clampLog(n); return n * l * l }

// N2 is the scaling function n².
func N2(n float64) float64 { return n * n }

// N2LogN is the scaling function n²·ln n.
func N2LogN(n float64) float64 { return n * n * clampLog(n) }

func clampLog(n float64) float64 {
	l := math.Log(n)
	if l < 1 {
		return 1
	}
	return l
}
