// Package rng provides a small, fast, deterministic pseudo-random number
// generator used throughout the gossipdisc simulators.
//
// The generator is xoshiro256** seeded through splitmix64. It is not
// cryptographically secure; it is chosen for speed, statistical quality on
// the operations the simulators perform (bounded uniform integers), and —
// critically — for *splittability*: a parent generator can derive an
// arbitrary number of independent child streams deterministically, which is
// what makes parallel multi-trial experiments exactly reproducible
// regardless of goroutine scheduling.
package rng

import (
	"math"
	"math/bits"
)

// Rand is a deterministic xoshiro256** pseudo-random generator.
// The zero value is not usable; construct with New or Split.
type Rand struct {
	s0, s1, s2, s3 uint64
}

// splitmix64 advances x by the splitmix64 sequence and returns the next
// output. It is used for seeding so that nearby seeds yield uncorrelated
// xoshiro states.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator deterministically derived from seed.
// Distinct seeds yield independent-looking streams; the same seed always
// yields the same stream.
func New(seed uint64) *Rand {
	r := &Rand{}
	x := seed
	r.s0 = splitmix64(&x)
	r.s1 = splitmix64(&x)
	r.s2 = splitmix64(&x)
	r.s3 = splitmix64(&x)
	// xoshiro must not be seeded with the all-zero state.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x9e3779b97f4a7c15
	}
	return r
}

// Uint64 returns the next 64 uniformly random bits.
func (r *Rand) Uint64() uint64 {
	result := bits.RotateLeft64(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = bits.RotateLeft64(r.s3, 45)
	return result
}

// Split returns a new generator whose stream is independent of the parent's
// future output. The child is derived from the parent's next two outputs, so
// splitting is itself deterministic: the k-th child of a generator seeded
// with s is always the same generator.
func (r *Rand) Split() *Rand {
	c := r.split()
	return &c
}

func (r *Rand) split() Rand {
	x := r.Uint64() ^ 0xd2b74407b1ce6e93
	y := r.Uint64()
	var c Rand
	z := x
	c.s0 = splitmix64(&z)
	c.s1 = splitmix64(&z)
	z = y
	c.s2 = splitmix64(&z)
	c.s3 = splitmix64(&z)
	if c.s0|c.s1|c.s2|c.s3 == 0 {
		c.s0 = 0x9e3779b97f4a7c15
	}
	return c
}

// SplitN returns n child generators derived by n sequential Split calls.
// Because the derivation is sequential, the i-th child depends only on the
// parent's state and on i — never on goroutine scheduling — so child i
// always receives the same stream no matter how many workers consume the
// children. The children share one backing array (two allocations, not
// n + 1).
func (r *Rand) SplitN(n int) []*Rand {
	kids := make([]Rand, n)
	out := make([]*Rand, n)
	for i := range out {
		kids[i] = r.split()
		out[i] = &kids[i]
	}
	return out
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// It uses Lemire's nearly-divisionless bounded rejection method.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n). It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	// Lemire's method: multiply-shift with rejection in the biased zone.
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		hi = r.reject(n, hi, lo)
	}
	return hi
}

// reject is the slow path of Lemire's method, entered with the (hi, lo)
// product of a draw that landed in the zone lo < n: it redraws while lo is
// below the bias threshold 2^64 mod n and returns the surviving hi. It is
// kept out of line so the division stays off the callers' fast path —
// Sample2 makes both of its draws in one body and calls this only when a
// draw needs it (a share n/2^64 of draws).
//
//go:noinline
func (r *Rand) reject(n, hi, lo uint64) uint64 {
	thresh := -n % n
	for lo < thresh {
		hi, lo = bits.Mul64(r.Uint64(), n)
	}
	return hi
}

// Float64 returns a uniform float64 in [0, 1) with 53 random bits.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability 1/2.
func (r *Rand) Bool() bool {
	return r.Uint64()&1 == 1
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (r *Rand) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a uniformly random permutation of [0, n) as a fresh slice.
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(p)
	return p
}

// Shuffle permutes p in place uniformly at random (Fisher–Yates).
func (r *Rand) Shuffle(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Sample2 returns two indices drawn independently and uniformly from [0, n)
// *with replacement* — the exact sampling semantics of the paper's push
// (triangulation) process, where a node picks two random neighbors that may
// coincide (in which case no edge is formed).
//
// The outputs and the generator state afterwards are exactly those of
// Intn(n), Intn(n) (TestSample2MatchesIntn); the two draws are written out
// in one body because this is the push round's per-node draw and Intn →
// Uint64n is two calls deep per index.
func (r *Rand) Sample2(n int) (int, int) {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	un := uint64(n)
	i, lo := bits.Mul64(r.Uint64(), un)
	if lo < un {
		i = r.reject(un, i, lo)
	}
	j, lo := bits.Mul64(r.Uint64(), un)
	if lo < un {
		j = r.reject(un, j, lo)
	}
	return int(i), int(j)
}

// Exp returns a standard exponential variate (rate 1, mean 1) by inverse
// CDF: -ln(1-U) with U uniform in [0, 1). Divide by a rate λ to draw an
// Exp(λ) inter-arrival gap. The event-driven simulator draws every gap of
// its superposed clock through this method on its clock stream.
func (r *Rand) Exp() float64 {
	return -math.Log(1 - r.Float64())
}

// Geometric returns the number of Bernoulli(p) failures before the first
// success (support {0, 1, 2, ...}). For p >= 1 it returns 0; it panics for
// p <= 0.
func (r *Rand) Geometric(p float64) int {
	if p <= 0 {
		panic("rng: Geometric with non-positive p")
	}
	if p >= 1 {
		return 0
	}
	n := 0
	for !r.Bernoulli(p) {
		n++
	}
	return n
}
