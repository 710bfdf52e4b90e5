package rng

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical outputs in 64 draws", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	saw := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		saw[r.Uint64()] = true
	}
	if len(saw) < 100 {
		t.Fatalf("zero-seeded generator repeated outputs: %d unique of 100", len(saw))
	}
}

func TestSplitDeterministic(t *testing.T) {
	a := New(7)
	b := New(7)
	ca := a.Split()
	cb := b.Split()
	for i := 0; i < 100; i++ {
		if ca.Uint64() != cb.Uint64() {
			t.Fatalf("split children diverged at %d", i)
		}
	}
	// Parent streams must also remain in lockstep after the split.
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("parents diverged post-split at %d", i)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	a := New(7)
	c := a.Split()
	// Child and parent streams should not coincide.
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("parent and child coincided %d/64 times", same)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestIntnUniform(t *testing.T) {
	// Chi-squared sanity check over 10 buckets.
	r := New(11)
	const buckets = 10
	const draws = 100000
	counts := make([]int, buckets)
	for i := 0; i < draws; i++ {
		counts[r.Intn(buckets)]++
	}
	expected := float64(draws) / buckets
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 9 degrees of freedom; 99.9th percentile is about 27.9.
	if chi2 > 27.9 {
		t.Fatalf("chi-squared %.2f too large; counts=%v", chi2, counts)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	sum := 0.0
	const draws = 100000
	for i := 0; i < draws; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sum += f
	}
	mean := sum / draws
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %.4f far from 0.5", mean)
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := New(9)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(13)
	const draws = 200000
	hits := 0
	for i := 0; i < draws; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / draws
	if math.Abs(rate-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) empirical rate %.4f", rate)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(17)
	for _, n := range []int{0, 1, 2, 5, 64} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	r := New(19)
	const n = 5
	const draws = 50000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Perm(n)[0]]++
	}
	for i, c := range counts {
		rate := float64(c) / draws
		if math.Abs(rate-1.0/n) > 0.01 {
			t.Fatalf("Perm first element %d rate %.4f", i, rate)
		}
	}
}

func TestSample2WithReplacement(t *testing.T) {
	r := New(29)
	collisions := 0
	const draws = 10000
	for i := 0; i < draws; i++ {
		a, b := r.Sample2(4)
		if a < 0 || a >= 4 || b < 0 || b >= 4 {
			t.Fatalf("Sample2 out of range: %d %d", a, b)
		}
		if a == b {
			collisions++
		}
	}
	// With replacement, P(a==b) = 1/4. Without, it would be 0.
	rate := float64(collisions) / draws
	if math.Abs(rate-0.25) > 0.02 {
		t.Fatalf("Sample2 collision rate %.4f, want ~0.25 (with replacement)", rate)
	}
}

// refUint64n is Lemire's bounded draw as Uint64n was written before its
// rejection loop moved out of line — the reference the split is held to.
func refUint64n(r *Rand, n uint64) uint64 {
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// TestSample2MatchesIntn pins Sample2(n) to Intn(n), Intn(n) — and both to
// the reference loop — on cloned streams: same values, same generator state
// afterwards. At n = 1<<62+1 (on a 64-bit int) a quarter of the draws enter
// the slow method and most of those redraw; at math.MaxInt (the nearest an
// int gets to the 1<<63+1 that Uint64n is checked at below) about every
// other draw enters it.
func TestSample2MatchesIntn(t *testing.T) {
	for _, n := range []int{1, 2, 3, 2047, 1<<31 - 1, 1<<(bits.UintSize-2) + 1, math.MaxInt} {
		a := New(uint64(n))
		b, c := *a, *a
		for k := 0; k < 4000; k++ {
			i, j := a.Sample2(n)
			wi, wj := b.Intn(n), b.Intn(n)
			ri, rj := refUint64n(&c, uint64(n)), refUint64n(&c, uint64(n))
			if i != wi || j != wj || uint64(i) != ri || uint64(j) != rj {
				t.Fatalf("n=%d draw %d: Sample2 (%d, %d), Intn (%d, %d), reference (%d, %d)",
					n, k, i, j, wi, wj, ri, rj)
			}
		}
		if *a != b || *a != c {
			t.Fatalf("n=%d: generator states differ after 4000 pair draws", n)
		}
	}
}

// TestUint64nMatchesReference covers the bounds an int cannot hold: at
// 1<<63+1 half the draws land in the biased zone and nearly all of those
// are redrawn.
func TestUint64nMatchesReference(t *testing.T) {
	for _, n := range []uint64{1, 3, 1<<63 + 1, math.MaxUint64} {
		a := New(n)
		b := *a
		for k := 0; k < 4000; k++ {
			if got, want := a.Uint64n(n), refUint64n(&b, n); got != want {
				t.Fatalf("n=%d draw %d: Uint64n %d, reference %d", n, k, got, want)
			}
		}
		if *a != b {
			t.Fatalf("n=%d: generator states differ after 4000 draws", n)
		}
	}
}

// TestSample2PanicsLikeIntn: a non-positive bound panics with Intn's message,
// as it did when Sample2 was two Intn calls.
func TestSample2PanicsLikeIntn(t *testing.T) {
	msg := func(f func()) (got any) {
		defer func() { got = recover() }()
		f()
		return nil
	}
	want := msg(func() { New(1).Intn(0) })
	if want != "rng: Intn with non-positive n" {
		t.Fatalf("Intn(0) panicked with %v", want)
	}
	for _, n := range []int{0, -1} {
		if got := msg(func() { New(1).Sample2(n) }); got != want {
			t.Fatalf("Sample2(%d) panicked with %v, want %v", n, got, want)
		}
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(31)
	const p = 0.2
	const draws = 100000
	sum := 0
	for i := 0; i < draws; i++ {
		sum += r.Geometric(p)
	}
	mean := float64(sum) / draws
	want := (1 - p) / p // mean of failures-before-success geometric
	if math.Abs(mean-want) > 0.1 {
		t.Fatalf("Geometric(%v) mean %.3f want %.3f", p, mean, want)
	}
}

func TestGeometricEdge(t *testing.T) {
	r := New(37)
	if g := r.Geometric(1); g != 0 {
		t.Fatalf("Geometric(1) = %d", g)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Geometric(0) did not panic")
		}
	}()
	r.Geometric(0)
}

func TestQuickIntnInRange(t *testing.T) {
	r := New(41)
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSeedDeterminism(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := New(seed), New(seed)
		for i := 0; i < 16; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += r.Intn(1000)
	}
	_ = sink
}

// TestSplitNSequentialEquivalence: SplitN(k) must equal k successive Split
// calls — child i's stream depends only on the parent state and i.
func TestSplitNSequentialEquivalence(t *testing.T) {
	a, b := New(99), New(99)
	kids := a.SplitN(8)
	for i, kid := range kids {
		want := b.Split()
		for j := 0; j < 8; j++ {
			if kid.Uint64() != want.Uint64() {
				t.Fatalf("SplitN child %d diverges from sequential Split at draw %d", i, j)
			}
		}
	}
	// Parents must be left in identical states.
	if a.Uint64() != b.Uint64() {
		t.Fatal("SplitN left parent in a different state than sequential splits")
	}
	// One backing array for the children, one for the pointers.
	if allocs := testing.AllocsPerRun(10, func() { a.SplitN(1000) }); allocs > 2 {
		t.Fatalf("SplitN(1000) made %.0f allocations, want <= 2", allocs)
	}
}
