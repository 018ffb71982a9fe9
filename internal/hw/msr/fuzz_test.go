package msr

import (
	"math"
	"testing"
)

// FuzzPowerLimitCodec checks that any decodable register value re-encodes
// to a register whose decode is identical — the codec is a projection onto
// representable limits.
func FuzzPowerLimitCodec(f *testing.F) {
	f.Add(uint64(0))
	f.Add(uint64(0x18208))
	f.Add(^uint64(0))
	f.Add(uint64(1) << 63)
	f.Fuzz(func(t *testing.T, raw uint64) {
		l1 := DecodePowerLimit(raw)
		if math.IsNaN(l1.Watts) || l1.Watts < 0 {
			t.Fatalf("decode produced invalid watts %v", l1.Watts)
		}
		if l1.Seconds < 0 {
			t.Fatalf("decode produced negative window %v", l1.Seconds)
		}
		re := EncodePowerLimit(l1)
		l2 := DecodePowerLimit(re)
		if math.Abs(l2.Watts-l1.Watts) > 1e-9 {
			t.Fatalf("watts not fixed under re-encode: %v -> %v", l1.Watts, l2.Watts)
		}
		if l2.Enabled != l1.Enabled || l2.Clamp != l1.Clamp {
			t.Fatal("flags not fixed under re-encode")
		}
		if l1.Seconds > 0 && math.Abs(l2.Seconds-l1.Seconds)/l1.Seconds > 1e-9 {
			t.Fatalf("window not fixed under re-encode: %v -> %v", l1.Seconds, l2.Seconds)
		}
	})
}

// FuzzEnergyDelta checks wrap-safe delta arithmetic for arbitrary counter
// pairs: the delta is always in [0, one full wrap).
func FuzzEnergyDelta(f *testing.F) {
	f.Add(uint64(0), uint64(0))
	f.Add(uint64(0xFFFFFFFF), uint64(0))
	f.Add(uint64(5), uint64(0xFFFFFFF0))
	f.Fuzz(func(t *testing.T, before, after uint64) {
		d := EnergyDeltaJoules(before&0xFFFFFFFF, after&0xFFFFFFFF)
		if d < 0 || d >= 65536 {
			t.Fatalf("delta %v outside [0, 65536)", d)
		}
	})
}

// FuzzTimeWindowEncoding checks the five-candidate window encoder against
// the 128-candidate scan for any float64 bit pattern up to the largest
// window, and that a larger window encodes as the largest.
func FuzzTimeWindowEncoding(f *testing.F) {
	for _, s := range []float64{0.001, 1, 1.875 / 1024, 3 << 30, 1e30, math.Inf(1)} {
		f.Add(math.Float64bits(s))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		checkTimeWindow(t, math.Float64frombits(bits))
	})
}
