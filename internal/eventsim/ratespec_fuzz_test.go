package eventsim

import (
	"math"
	"testing"
)

// FuzzRateSpec drives the -rates grammar at several population sizes: no
// input may panic, a spec ValidateRateSpec rejects must not parse, and an
// accepted map's TotalRate must be finite and equal a fresh sum of its
// rates to 1e-12 relative. The 1e308 seed once parsed to a +Inf total.
func FuzzRateSpec(f *testing.F) {
	f.Add("", uint16(4))
	f.Add("2.5", uint16(3))
	f.Add("0.5,fast=8:0-15,park=0:16-31", uint16(32))
	f.Add("a=2:0-3,b=5:2-3", uint16(4))
	f.Add("x=1e308:0-3,y=1e308:4-7", uint16(32))
	f.Add("4294967296,hub=4294967296:0-7", uint16(8))
	f.Add("0.1,zero=0:0-9", uint16(10))
	f.Add("fast=NaN:0-1", uint16(4))
	f.Add("Inf", uint16(4))
	f.Add("1,,x=2:0", uint16(4))
	f.Add("x=2:9-2", uint16(16))
	f.Fuzz(func(t *testing.T, spec string, n16 uint16) {
		n := int(n16 % 2048)
		verr := ValidateRateSpec(spec)
		m, err := ParseRateSpec(spec, n)
		if verr != nil && err == nil {
			t.Fatalf("ValidateRateSpec(%q) = %v, but ParseRateSpec accepted it", spec, verr)
		}
		if err != nil {
			return
		}
		if m.N() != n {
			t.Fatalf("ParseRateSpec(%q, %d) covers %d nodes", spec, n, m.N())
		}
		fresh := 0.0
		for u := 0; u < n; u++ {
			fresh += m.Rate(u)
		}
		if total := m.TotalRate(); math.IsInf(total, 0) || math.IsNaN(total) || math.Abs(total-fresh) > 1e-12*fresh {
			t.Fatalf("ParseRateSpec(%q, %d): TotalRate %v, fresh sum %v", spec, n, total, fresh)
		}
	})
}
