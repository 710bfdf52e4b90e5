package graph

import (
	"testing"

	"gossipdisc/internal/bitset"
)

// FuzzSparseRow fuzzes the sparse row primitives — insert (and the list →
// sorted → bitset transitions it triggers), rank, membership, complement
// select, complement iteration, and the dense-phase diff queries — against
// a bitset row as the oracle. The harness plays the graph: it owns the
// neighbor list the store reads and appends to it on an accepted insert. The op stream is interpreted two bytes at a
// time: the low 3 bits of the first byte pick the operation, the second
// byte (scaled into the universe) is its argument. Most universes are kept
// small enough that the byte argument can reach every node and every
// complement rank, where rows go list → bitset at promoteAt = max(16, n/32)
// <= 64; the top bit of the universe argument widens it eightfold so that
// rows can also pass shortRow while still unpromoted.
func FuzzSparseRow(f *testing.F) {
	f.Add(uint16(40), []byte{0, 1, 0, 2, 0, 3, 1, 2, 4, 0})
	f.Add(uint16(130), []byte("insert-heavy seed that promotes the row........"))
	f.Add(uint16(640), []byte{0, 10, 0, 20, 0, 30, 0, 40, 1, 20, 1, 10, 5, 0, 6, 7})
	f.Add(uint16(1), []byte{0, 0, 1, 0, 3, 0})
	f.Add(uint16(0), []byte{0, 0})
	// 200 distinct inserts in the widest universe leave a sorted row (128 <=
	// 200 < promoteAt = 512) for the queries that follow.
	long := make([]byte, 0, 410)
	for i := 0; i < 200; i++ {
		long = append(long, 0, byte(i*37))
	}
	f.Add(uint16(1<<15|2047), append(long, 4, 100, 5, 77, 6, 9, 7, 37, 3, 38))
	f.Fuzz(func(t *testing.T, un uint16, ops []byte) {
		n := int(un)%2048 + 1
		if un >= 1<<15 {
			// Up to 16384, where promoteAt reaches 512: the only universes in
			// which the byte-sized arguments can build a sorted row.
			n *= 8
		}
		adj, rows := newLists(n, BackendSparse)
		s := rows.(*sparseRows)
		oracle := bitset.New(n)
		target := bitset.New(n)
		for i := 0; i < n; i += 3 {
			target.Set(i) // fixed diff target exercising word boundaries
		}
		cnt := 0
		for i := 0; i+1 < len(ops); i += 2 {
			op := ops[i] & 7
			v := int(ops[i+1]) * n / 256
			if v >= n {
				v = n - 1
			}
			switch op {
			case 0, 1, 2: // insert-biased so rows actually promote
				ins := s.insert(0, v)
				if ins != !oracle.Test(v) {
					t.Fatalf("insert(%d) returned %v with oracle %v", v, ins, oracle.Test(v))
				}
				if ins {
					adj.add(0, int32(v))
					oracle.Set(v)
					cnt++
				}
			case 4: // rank
				if got, want := s.rank(0, v), oracle.Rank(v); got != want {
					t.Fatalf("rank(%d) = %d, want %d", v, got, want)
				}
			case 5: // complement select at a fuzzed rank
				k := v % (n - cnt + 1)
				if got, want := s.selectClear(0, k), oracle.SelectClear(k); got != want {
					t.Fatalf("selectClear(%d) = %d, want %d", k, got, want)
				}
			case 6: // diff queries against the fixed target
				dc := s.diffCount(0, target)
				if want := target.DiffCount(oracle); dc != want {
					t.Fatalf("diffCount = %d, want %d", dc, want)
				}
				if dc > 0 {
					k := v % dc
					if got, want := s.selectDiff(0, target, k), target.SelectDiff(oracle, k); got != want {
						t.Fatalf("selectDiff(%d) = %d, want %d", k, got, want)
					}
				}
			case 3, 7: // membership probe (3 was remove while rows could shrink)
				if got, want := s.test(0, v), oracle.Test(v); got != want {
					t.Fatalf("test(%d) = %v, want %v", v, got, want)
				}
			}
			if s.count(0) != cnt {
				t.Fatalf("count = %d after %d net inserts", s.count(0), cnt)
			}
			// Ladder invariant: the row's form is a function of its length,
			// and the store reads the form through that length alone.
			long := cnt >= min(shortRow, s.promoteAt)
			if s.short(0) == long {
				t.Fatalf("short = %v with cnt=%d (shortRow %d, promoteAt %d)", s.short(0), cnt, shortRow, s.promoteAt)
			}
			if (s.rows != nil) != long || long && s.rows[0] == nil {
				t.Fatalf("row storage allocated = %v with cnt=%d (shortRow %d, promoteAt %d)", s.rows != nil && s.rows[0] != nil, cnt, shortRow, s.promoteAt)
			}
			if long && (s.rows[0].bits != nil) != (cnt >= s.promoteAt) {
				t.Fatalf("row promoted = %v with cnt=%d at threshold %d", s.rows[0].bits != nil, cnt, s.promoteAt)
			}
		}
		// Final exhaustive sweep: the row and a snapshot must match the
		// oracle exactly, in increasing order.
		last := -1
		s.forEach(0, func(v int) {
			if v <= last || !oracle.Test(v) {
				t.Fatalf("forEach yielded %d (last %d, oracle %v)", v, last, oracle.Test(v))
			}
			last = v
		})
		if !s.row(0).Equal(oracle) {
			t.Fatal("materialized row differs from oracle")
		}
	})
}
