package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func close(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !close(m, 5, 1e-12) {
		t.Fatalf("mean %v", m)
	}
	if v := Variance(xs); !close(v, 32.0/7, 1e-12) {
		t.Fatalf("variance %v", v)
	}
	if s := StdDev(xs); !close(s, math.Sqrt(32.0/7), 1e-12) {
		t.Fatalf("stddev %v", s)
	}
	if Mean(nil) != 0 || Variance(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Fatal("empty-input conventions broken")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatalf("min/max %v %v", Min(xs), Max(xs))
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Fatal("empty min/max")
	}
}

func TestQuantileMedian(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if q := Median(xs); !close(q, 2.5, 1e-12) {
		t.Fatalf("median %v", q)
	}
	if q := Quantile(xs, 0); q != 1 {
		t.Fatalf("q0 %v", q)
	}
	if q := Quantile(xs, 1); q != 4 {
		t.Fatalf("q1 %v", q)
	}
	if q := Quantile(xs, 0.25); !close(q, 1.75, 1e-12) {
		t.Fatalf("q.25 %v", q)
	}
	if q := Quantile(xs, -1); q != 1 {
		t.Fatalf("clamped q %v", q)
	}
	if Quantile(nil, 0.5) != 0 {
		t.Fatal("empty quantile")
	}
	// Input must not be mutated.
	ys := []float64{3, 1, 2}
	Median(ys)
	if ys[0] != 3 || ys[1] != 1 || ys[2] != 2 {
		t.Fatal("Quantile mutated input")
	}
}

func TestMeanCI95(t *testing.T) {
	xs := []float64{10, 10, 10, 10}
	m, hw := MeanCI95(xs)
	if m != 10 || hw != 0 {
		t.Fatalf("constant CI %v %v", m, hw)
	}
	ys := []float64{0, 10}
	_, hw2 := MeanCI95(ys)
	if hw2 <= 0 {
		t.Fatal("CI should be positive for spread data")
	}
	if _, hw3 := MeanCI95([]float64{5}); hw3 != 0 {
		t.Fatal("single-point CI should be 0")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if s.N != 3 || s.Mean != 2 || s.Min != 1 || s.Max != 3 || s.Median != 2 {
		t.Fatalf("summary %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty summary string")
	}
}

func TestLinearFitExact(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{5, 7, 9, 11} // y = 2x + 3
	slope, intercept, r2 := LinearFit(x, y)
	if !close(slope, 2, 1e-12) || !close(intercept, 3, 1e-12) || !close(r2, 1, 1e-12) {
		t.Fatalf("fit %v %v %v", slope, intercept, r2)
	}
}

func TestLinearFitNoise(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2.1, 3.9, 6.2, 7.8, 10.1} // ~2x
	slope, _, r2 := LinearFit(x, y)
	if slope < 1.8 || slope > 2.2 {
		t.Fatalf("noisy slope %v", slope)
	}
	if r2 < 0.98 {
		t.Fatalf("noisy r2 %v", r2)
	}
}

func TestLinearFitPanics(t *testing.T) {
	for _, f := range []func(){
		func() { LinearFit([]float64{1}, []float64{1, 2}) },
		func() { LinearFit([]float64{1}, []float64{1}) },
		func() { LinearFit([]float64{2, 2}, []float64{1, 3}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestLogLogSlope(t *testing.T) {
	// y = x²: exponent 2.
	x := []float64{2, 4, 8, 16, 32}
	y := make([]float64, len(x))
	for i := range x {
		y[i] = x[i] * x[i]
	}
	exp, r2 := LogLogSlope(x, y)
	if !close(exp, 2, 1e-9) || !close(r2, 1, 1e-9) {
		t.Fatalf("loglog %v %v", exp, r2)
	}
	// y = x·ln²x fits an exponent modestly above 1 on this range.
	for i := range x {
		y[i] = NLog2N(x[i])
	}
	exp2, _ := LogLogSlope(x, y)
	if exp2 < 1.1 || exp2 < 1 || exp2 > 2 {
		t.Fatalf("nlog2n exponent %v", exp2)
	}
}

func TestLogLogSlopePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	LogLogSlope([]float64{1, -2}, []float64{1, 2})
}

func TestScalingFunctions(t *testing.T) {
	if NLogN(math.E) != math.E {
		t.Fatalf("NLogN(e) = %v", NLogN(math.E))
	}
	// Log clamp keeps small n sane.
	if NLogN(1) != 1 || NLog2N(1) != 1 {
		t.Fatal("log clamp broken")
	}
	if N2(5) != 25 {
		t.Fatal("N2 wrong")
	}
	if !close(N2LogN(math.E), math.E*math.E, 1e-12) {
		t.Fatal("N2LogN wrong")
	}
}

// Property: mean is within [min, max]; quantiles are monotone in q.
func TestQuickSummaryInvariants(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, math.Mod(v, 1e6))
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		if s.Mean < s.Min-1e-9 || s.Mean > s.Max+1e-9 {
			return false
		}
		return Quantile(xs, 0.25) <= Quantile(xs, 0.75)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: LinearFit recovers arbitrary exact affine relationships.
func TestQuickLinearFitRecovery(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
			return true
		}
		a = math.Mod(a, 100)
		b = math.Mod(b, 100)
		x := []float64{1, 2, 5, 9}
		y := make([]float64, len(x))
		for i := range x {
			y[i] = a*x[i] + b
		}
		slope, intercept, _ := LinearFit(x, y)
		return close(slope, a, 1e-6*(1+math.Abs(a))) && close(intercept, b, 1e-6*(1+math.Abs(b)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestKSTwoSample checks the statistic on hand-computed samples (disjoint,
// interleaved, identical, ties within and across samples) and the p-value
// against the Kolmogorov distribution's tabulated quantiles and values.
func TestKSTwoSample(t *testing.T) {
	cases := []struct {
		name string
		a, b []float64
		d    float64
	}{
		{"disjoint", []float64{1, 2, 3, 4}, []float64{5, 6, 7, 8}, 1},
		{"interleaved", []float64{1, 3, 5, 7}, []float64{2, 4, 6, 8}, 0.25},
		{"identical", []float64{3, 1, 2}, []float64{1, 2, 3}, 0},
		{"ties across", []float64{1, 1, 2}, []float64{1, 2, 2}, 1.0 / 3},
		{"unequal sizes", []float64{0.5}, []float64{0, 1, 2, 3}, 0.75},
	}
	for _, c := range cases {
		d, p := KSTwoSample(c.a, c.b)
		n, m := float64(len(c.a)), float64(len(c.b))
		if !close(d, c.d, 1e-15) || !close(p, kolmogorovQ(math.Sqrt(n*m/(n+m))*c.d), 1e-15) {
			t.Errorf("%s: D = %v, p = %v; want D = %v", c.name, d, p, c.d)
		}
	}
	if _, p := KSTwoSample([]float64{1, 2}, []float64{1, 2}); p != 1 {
		t.Errorf("identical samples: p = %v, want 1", p)
	}

	// Upper-tail quantiles of the Kolmogorov distribution (the classic
	// 1.2238 / 1.3581 / 1.6276 critical values) and two CDF values,
	// P(K ≤ 0.5) = 0.036055 and P(K ≤ 1) = 0.730000.
	for _, c := range []struct{ lambda, q, eps float64 }{
		{0.1, 1, 0},
		{0.5, 1 - 0.0360547563, 1e-9},
		{1, 1 - 0.7300003283, 1e-9},
		{1.2238, 0.10, 5e-5},
		{1.3581, 0.05, 5e-5},
		{1.6276, 0.01, 5e-5},
		{10, 0, 1e-15},
	} {
		if q := kolmogorovQ(c.lambda); !close(q, c.q, c.eps) {
			t.Errorf("Q(%v) = %.10f, want %.10f ± %g", c.lambda, q, c.q, c.eps)
		}
	}

	defer func() {
		if recover() == nil {
			t.Error("KSTwoSample accepted an empty sample")
		}
	}()
	KSTwoSample(nil, []float64{1})
}
