package bitset

import (
	"testing"
	"testing/quick"
)

func TestSetTestClear(t *testing.T) {
	s := New(130)
	if s.Any() {
		t.Fatal("fresh set not empty")
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		s.Set(i)
		if !s.Test(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if s.Count() != 8 {
		t.Fatalf("count %d want 8", s.Count())
	}
	s.Clear(64)
	if s.Test(64) {
		t.Fatal("bit 64 still set after clear")
	}
	if s.Count() != 7 {
		t.Fatalf("count %d want 7", s.Count())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := New(10)
	for _, f := range []func(){
		func() { s.Set(10) },
		func() { s.Set(-1) },
		func() { s.Test(10) },
		func() { s.Clear(-1) },
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

func TestFillAllReset(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 100} {
		s := New(n)
		s.Fill()
		if s.Count() != n {
			t.Fatalf("Fill(%d) count %d", n, s.Count())
		}
		if n > 0 && !s.All() {
			t.Fatalf("All false after Fill(%d)", n)
		}
		s.Reset()
		if !s.None() {
			t.Fatalf("None false after Reset(%d)", n)
		}
	}
}

func TestFillDoesNotOverflowUniverse(t *testing.T) {
	s := New(65)
	s.Fill()
	// The last word must have exactly 1 bit set.
	if s.Count() != 65 {
		t.Fatalf("count %d", s.Count())
	}
	if s.NextSet(65) != -1 {
		t.Fatal("found set bit beyond the universe")
	}
}

func TestUnionIntersectDifference(t *testing.T) {
	a := New(100)
	b := New(100)
	a.Set(1)
	a.Set(50)
	b.Set(50)
	b.Set(99)

	u := a.Clone()
	if !u.UnionWith(b) {
		t.Fatal("union reported no change")
	}
	if u.Count() != 3 || !u.Test(1) || !u.Test(50) || !u.Test(99) {
		t.Fatalf("bad union %v", u)
	}
	if u.UnionWith(b) {
		t.Fatal("second union reported change")
	}

	i := a.Clone()
	i.IntersectWith(b)
	if i.Count() != 1 || !i.Test(50) {
		t.Fatalf("bad intersection %v", i)
	}

	d := a.Clone()
	d.DifferenceWith(b)
	if d.Count() != 1 || !d.Test(1) {
		t.Fatalf("bad difference %v", d)
	}
}

func TestEqualSubset(t *testing.T) {
	a := New(70)
	b := New(70)
	a.Set(3)
	b.Set(3)
	if !a.Equal(b) {
		t.Fatal("equal sets not Equal")
	}
	b.Set(69)
	if a.Equal(b) {
		t.Fatal("unequal sets Equal")
	}
	if !a.IsSubsetOf(b) {
		t.Fatal("subset not detected")
	}
	if b.IsSubsetOf(a) {
		t.Fatal("superset claimed to be subset")
	}
	c := New(71)
	if a.Equal(c) {
		t.Fatal("different capacity sets Equal")
	}
}

func TestSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(10).UnionWith(New(11))
}

func TestForEachSliceOrder(t *testing.T) {
	s := New(200)
	want := []int{0, 5, 63, 64, 70, 199}
	for _, i := range want {
		s.Set(i)
	}
	got := s.Slice()
	if len(got) != len(want) {
		t.Fatalf("slice %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slice %v want %v", got, want)
		}
	}
}

func TestNextSet(t *testing.T) {
	s := New(150)
	s.Set(10)
	s.Set(64)
	s.Set(149)
	cases := []struct{ from, want int }{
		{0, 10}, {10, 10}, {11, 64}, {64, 64}, {65, 149}, {149, 149}, {150, -1}, {-5, 10},
	}
	for _, c := range cases {
		if got := s.NextSet(c.from); got != c.want {
			t.Fatalf("NextSet(%d) = %d want %d", c.from, got, c.want)
		}
	}
	if New(10).NextSet(0) != -1 {
		t.Fatal("NextSet on empty set should be -1")
	}
}

func TestCloneIndependent(t *testing.T) {
	a := New(64)
	a.Set(7)
	b := a.Clone()
	b.Set(8)
	if a.Test(8) {
		t.Fatal("clone aliased parent storage")
	}
}

// TestView: a view reads and writes the caller's words, behaves as a New(n)
// set over them, and is refused over a word slice of any other length.
func TestView(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		words := make([]uint64, (n+63)/64)
		v := View(words, n)
		ref := New(n)
		for i := 0; i < n; i += 3 {
			v.Set(i)
			ref.Set(i)
		}
		if !v.Equal(ref) || v.Len() != n || v.Count() != ref.Count() {
			t.Fatalf("n=%d: view %v, want %v", n, &v, ref)
		}
		if n > 0 && words[0]&1 == 0 {
			t.Fatalf("n=%d: Set(0) on the view did not reach the caller's words", n)
		}
		if c := v.Clone(); n > 0 {
			c.Clear(0)
			if !v.Test(0) {
				t.Fatalf("n=%d: clone of a view aliased the viewed words", n)
			}
		}
		for _, bad := range []int{len(words) - 1, len(words) + 1} {
			if bad < 0 {
				continue
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("View(%d words, %d bits) did not panic", bad, n)
					}
				}()
				View(make([]uint64, bad), n)
			}()
		}
	}
}

func TestString(t *testing.T) {
	s := New(10)
	if s.String() != "{}" {
		t.Fatalf("empty string %q", s.String())
	}
	s.Set(1)
	s.Set(9)
	if s.String() != "{1 9}" {
		t.Fatalf("string %q", s.String())
	}
}

func TestQuickUnionIsCommutativeAndMonotone(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		const n = 256
		a, b := New(n), New(n)
		for _, x := range xs {
			a.Set(int(x) % n)
		}
		for _, y := range ys {
			b.Set(int(y) % n)
		}
		ab := a.Clone()
		ab.UnionWith(b)
		ba := b.Clone()
		ba.UnionWith(a)
		return ab.Equal(ba) && a.IsSubsetOf(ab) && b.IsSubsetOf(ab) &&
			ab.Count() <= a.Count()+b.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSetTestRoundTrip(t *testing.T) {
	f := func(idxs []uint16) bool {
		const n = 1024
		s := New(n)
		seen := map[int]bool{}
		for _, x := range idxs {
			i := int(x) % n
			s.Set(i)
			seen[i] = true
		}
		if s.Count() != len(seen) {
			return false
		}
		for i := range seen {
			if !s.Test(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUnionWith(b *testing.B) {
	a := New(4096)
	c := New(4096)
	for i := 0; i < 4096; i += 3 {
		a.Set(i)
	}
	for i := 0; i < 4096; i += 5 {
		c.Set(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.UnionWith(c)
	}
}

func TestWordOps(t *testing.T) {
	s := New(130)
	s.Set(5)
	s.Set(64)
	// OrWord returns exactly the newly set bits.
	newBits := s.OrWord(0, 1<<5|1<<7)
	if newBits != 1<<7 {
		t.Fatalf("OrWord new bits = %x, want %x", newBits, uint64(1<<7))
	}
	if !s.Test(7) || !s.Test(5) || !s.Test(64) {
		t.Fatal("OrWord clobbered or missed bits")
	}
	if got := s.OrWord(0, 1<<7); got != 0 {
		t.Fatalf("re-OR of present bit returned %x", got)
	}
	if got := s.OrWord(2, 1); got != 1 || !s.Test(128) {
		t.Fatalf("OrWord in last word: new bits %x", got)
	}
	if s.Count() != 4 {
		t.Fatalf("Count = %d, want 4", s.Count())
	}
}

func TestWordOpsAgainstSet(t *testing.T) {
	// Property: OrWord-driven insertion is equivalent to bit-by-bit Set.
	f := func(idxs []uint16) bool {
		a, b := New(1000), New(1000)
		for _, raw := range idxs {
			i := int(raw) % 1000
			a.Set(i)
			b.OrWord(i/64, 1<<(uint(i)%64))
		}
		return a.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// clearSlice returns the clear bits of s in increasing order, brute force.
func clearSlice(s *Set) []int {
	out := []int{}
	for i := 0; i < s.Len(); i++ {
		if !s.Test(i) {
			out = append(out, i)
		}
	}
	return out
}

// SelectClear is the one clear-bit view left on Set; these two tests keep
// the names they had when ForEachClear and NextClear were checked beside it.
func TestForEachClearSelectClearNextClear(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 130, 200} {
		s := New(n)
		// A mix of sparse and word-boundary bits.
		for _, i := range []int{0, 1, 62, 63, 64, 65, 127, 128, 129, 190} {
			if i < n {
				s.Set(i)
			}
		}
		want := clearSlice(s)
		for k := range want {
			if sel := s.SelectClear(k); sel != want[k] {
				t.Fatalf("n=%d: SelectClear(%d) = %d want %d", n, k, sel, want[k])
			}
		}
		if s.SelectClear(len(want)) != -1 || s.SelectClear(-1) != -1 {
			t.Fatalf("n=%d: SelectClear out of range did not return -1", n)
		}
	}
}

func TestNextClearIgnoresTailBits(t *testing.T) {
	// A 65-bit universe whose every in-universe bit is set: the clear bits
	// of the final partial word lie beyond the universe and must be ignored.
	s := New(65)
	s.Fill()
	if got := s.SelectClear(0); got != -1 {
		t.Fatalf("SelectClear over a full set = %d want -1", got)
	}
}

func TestRank(t *testing.T) {
	s := New(200)
	for _, i := range []int{0, 5, 63, 64, 100, 199} {
		s.Set(i)
	}
	for i := -1; i <= 201; i++ {
		want := 0
		for j := 0; j < i && j < 200; j++ {
			if s.Test(j) {
				want++
			}
		}
		if got := s.Rank(i); got != want {
			t.Fatalf("Rank(%d) = %d want %d", i, got, want)
		}
	}
	if s.Rank(s.Len()) != s.Count() {
		t.Fatal("Rank(Len) != Count")
	}
}

func TestSelectDiffDiffCount(t *testing.T) {
	a, b := New(130), New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		a.Set(i)
	}
	for _, i := range []int{1, 64, 129, 80} {
		b.Set(i)
	}
	want := []int{}
	for i := 0; i < 130; i++ {
		if a.Test(i) && !b.Test(i) {
			want = append(want, i)
		}
	}
	if got := a.DiffCount(b); got != len(want) {
		t.Fatalf("DiffCount = %d want %d", got, len(want))
	}
	for k, w := range want {
		if got := a.SelectDiff(b, k); got != w {
			t.Fatalf("SelectDiff(%d) = %d want %d", k, got, w)
		}
	}
	if a.SelectDiff(b, len(want)) != -1 || a.SelectDiff(b, -1) != -1 {
		t.Fatal("SelectDiff out of range did not return -1")
	}
}

func TestQuickComplementViews(t *testing.T) {
	// Property: for random sets, Count + clear count == n, and
	// SelectClear(Rank-style index) enumerates exactly the complement.
	f := func(seed uint64, raw []byte) bool {
		n := int(seed%257) + 1
		s := New(n)
		for _, b := range raw {
			s.Set(int(b) % n)
		}
		clear := clearSlice(s)
		if s.Count()+len(clear) != n {
			return false
		}
		for k, w := range clear {
			if s.SelectClear(k) != w {
				return false
			}
		}
		return s.SelectClear(len(clear)) == -1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
