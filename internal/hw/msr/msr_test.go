package msr

import (
	"errors"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"varpower/internal/xrand"
)

func TestWhitelistEnforcement(t *testing.T) {
	d := NewDevice(130)
	if _, err := d.Read(0xDEAD); !errors.Is(err, ErrNotWhitelisted) {
		t.Fatalf("read of unknown register: %v", err)
	}
	if err := d.Write(0xDEAD, 1); !errors.Is(err, ErrNotWhitelisted) {
		t.Fatalf("write of unknown register: %v", err)
	}
	if err := d.Write(PkgEnergyStatus, 1); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("write of read-only register: %v", err)
	}
	if err := d.Write(RaplPowerUnit, 1); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("unit register must be read-only: %v", err)
	}
	if err := d.Write(PkgPowerLimit, 0x8000); err != nil {
		t.Fatalf("writable register rejected: %v", err)
	}
}

func TestUnitRegisterDefaults(t *testing.T) {
	d := NewDevice(130)
	raw, err := d.Read(RaplPowerUnit)
	if err != nil {
		t.Fatal(err)
	}
	if raw&0xF != 3 {
		t.Errorf("power unit exponent = %d, want 3 (1/8 W)", raw&0xF)
	}
	if raw>>8&0x1F != 16 {
		t.Errorf("energy unit exponent = %d, want 16 (15.3 µJ)", raw>>8&0x1F)
	}
	if raw>>16&0xF != 10 {
		t.Errorf("time unit exponent = %d, want 10 (976 µs)", raw>>16&0xF)
	}
}

func TestPowerInfoReflectsTDP(t *testing.T) {
	d := NewDevice(130)
	raw, err := d.Read(PkgPowerInfo)
	if err != nil {
		t.Fatal(err)
	}
	if got := DecodePowerUnits(raw); math.Abs(got-130) > 0.2 {
		t.Errorf("TDP decode = %v, want 130", got)
	}
}

func TestEnergyAccumulation(t *testing.T) {
	d := NewDevice(130)
	before, _ := d.Read(PkgEnergyStatus)
	d.AccumulateEnergy(100, 25)
	afterPkg, _ := d.Read(PkgEnergyStatus)
	afterDram, _ := d.Read(DramEnergyStatus)
	if got := EnergyDeltaJoules(before, afterPkg); math.Abs(got-100) > 1e-3 {
		t.Errorf("pkg energy delta = %v, want 100 J", got)
	}
	if got := EnergyCounterToJoules(afterDram); math.Abs(got-25) > 1e-3 {
		t.Errorf("dram energy = %v, want 25 J", got)
	}
}

func TestEnergyFractionalQuanta(t *testing.T) {
	// Many sub-quantum accumulations must not lose energy to truncation.
	d := NewDevice(130)
	const tiny = 1e-7 // below the 15.3 µJ quantum
	const n = 1000000
	for i := 0; i < n; i++ {
		d.AccumulateEnergy(tiny, 0)
	}
	raw, _ := d.Read(PkgEnergyStatus)
	got := EnergyCounterToJoules(raw)
	want := tiny * n
	if math.Abs(got-want)/want > 1e-3 {
		t.Errorf("fractional accumulation lost energy: %v J, want %v J", got, want)
	}
}

func TestEnergyWraparound(t *testing.T) {
	d := NewDevice(130)
	// One wrap is 2^32 energy units = 65536 J. Park the counter near the
	// top, then push it over.
	d.AccumulateEnergy(65530, 0)
	before, _ := d.Read(PkgEnergyStatus)
	d.AccumulateEnergy(10, 0)
	after, _ := d.Read(PkgEnergyStatus)
	if after >= before {
		t.Fatalf("counter did not wrap: %#x -> %#x", before, after)
	}
	if got := EnergyDeltaJoules(before, after); math.Abs(got-10) > 1e-3 {
		t.Errorf("wrap-safe delta = %v, want 10 J", got)
	}
}

func TestPowerUnitsCodecRoundTrip(t *testing.T) {
	f := func(v float64) bool {
		w := math.Abs(math.Mod(v, 4000))
		raw := EncodePowerUnits(w)
		back := DecodePowerUnits(raw)
		return math.Abs(back-w) <= 1.0/8/2+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if EncodePowerUnits(-5) != 0 {
		t.Error("negative watts should encode as 0")
	}
	if EncodePowerUnits(1e9) != 0x7FFF {
		t.Error("overflow should saturate at field max")
	}
}

func TestPowerLimitCodec(t *testing.T) {
	l := PowerLimit{Watts: 77.5, Seconds: 0.001, Enabled: true, Clamp: true}
	raw := EncodePowerLimit(l)
	back := DecodePowerLimit(raw)
	if math.Abs(back.Watts-l.Watts) > 0.125 {
		t.Errorf("watts round-trip: %v -> %v", l.Watts, back.Watts)
	}
	if !back.Enabled || !back.Clamp {
		t.Error("flag bits lost")
	}
	if back.Seconds <= 0 || back.Seconds > 0.002 {
		t.Errorf("1 ms window decoded as %v s", back.Seconds)
	}
	// Disabled zero limit.
	z := DecodePowerLimit(0)
	if z.Enabled || z.Watts != 0 {
		t.Errorf("zero register decodes as %+v", z)
	}
}

func TestTimeWindowCodecMonotone(t *testing.T) {
	// The Y/Z float format is coarse; just require order preservation and
	// bounded relative error over the practical range.
	prev := -1.0
	for _, s := range []float64{0.001, 0.01, 0.1, 1, 10} {
		raw := encodeTimeWindow(s)
		got := decodeTimeWindow(raw)
		if got <= prev {
			t.Fatalf("window codec not monotone at %v s", s)
		}
		if got < s/1.3 || got > s*1.3 {
			t.Fatalf("window %v s decoded as %v s", s, got)
		}
		prev = got
	}
}

func TestSetPerfStatus(t *testing.T) {
	d := NewDevice(130)
	d.SetPerfStatus(27) // 2.7 GHz
	raw, err := d.Read(IA32PerfStatus)
	if err != nil {
		t.Fatal(err)
	}
	if raw>>8&0xFF != 27 {
		t.Errorf("perf status ratio = %d, want 27", raw>>8&0xFF)
	}
}

func TestConcurrentAccess(t *testing.T) {
	// Run with -race: a controller thread programming limits while a
	// monitor thread reads energy must be safe.
	d := NewDevice(130)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				_ = d.Write(PkgPowerLimit, uint64(i))
				d.AccumulateEnergy(0.1, 0.01)
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				_, _ = d.Read(PkgEnergyStatus)
				_, _ = d.Read(PkgPowerLimit)
			}
		}()
	}
	wg.Wait()
}

// scanTimeWindow is the reference encoder: the nearest of all 128 (Y, Z)
// candidates, the first on ties.
func scanTimeWindow(seconds float64) uint64 {
	if seconds <= 0 {
		return 0
	}
	target := seconds * (1 << timeUnitExp)
	bestY, bestZ, bestErr := uint64(0), uint64(0), -1.0
	for y := uint64(0); y < 32; y++ {
		for z := uint64(0); z < 4; z++ {
			v := (1 + float64(z)/4) * float64(uint64(1)<<y)
			err := v - target
			if err < 0 {
				err = -err
			}
			if bestErr < 0 || err < bestErr {
				bestY, bestZ, bestErr = y, z, err
			}
		}
	}
	return bestY | bestZ<<5
}

// checkTimeWindow checks the encoder against the scan for a window up to
// the largest candidate, and that a larger one encodes as that candidate.
func checkTimeWindow(t *testing.T, seconds float64) {
	t.Helper()
	want := scanTimeWindow(seconds)
	if seconds*(1<<timeUnitExp) >= maxWindow {
		want = 31 | 3<<5
	}
	if got := encodeTimeWindow(seconds); got != want {
		t.Fatalf("encodeTimeWindow(%v) = %#x, want %#x", seconds, got, want)
	}
}

// TestTimeWindowMatchesScan checks the five-candidate encoder against the
// full scan at every candidate, every midpoint between neighbouring
// candidates (the ties), the float neighbours of both, special values in
// the representable range, and 1M log-uniform windows over 1e-12..1e12 s
// (above ~42 days the scan's nearest candidate is the largest, too);
// windows so large that the scan's errors tie, and +Inf, encode as the
// largest candidate.
func TestTimeWindowMatchesScan(t *testing.T) {
	var prev float64
	for y := 0; y < 32; y++ {
		for z := 0; z < 4; z++ {
			v := (1 + float64(z)/4) * float64(uint64(1)<<y) / (1 << timeUnitExp)
			for _, s := range []float64{v, (prev + v) / 2} {
				checkTimeWindow(t, s)
				checkTimeWindow(t, math.Nextafter(s, math.Inf(1)))
				checkTimeWindow(t, math.Nextafter(s, math.Inf(-1)))
			}
			prev = v
		}
	}
	for _, s := range []float64{0, math.Copysign(0, -1), -1, math.NaN(), math.Inf(-1),
		math.SmallestNonzeroFloat64, 1e-300, 0.001, 1, 1 << 22, 1 << 23} {
		checkTimeWindow(t, s)
	}
	for _, s := range []float64{1e20, 1e60, 1e300, math.MaxFloat64, math.Inf(1)} {
		if got := encodeTimeWindow(s); got != 31|3<<5 {
			t.Errorf("encodeTimeWindow(%v) = %#x, want the largest window 0x7f", s, got)
		}
	}
	rng := xrand.New(0x7173)
	for i := 0; i < 1_000_000; i++ {
		s := math.Pow(10, rng.Uniform(-12, 12))
		if got, want := encodeTimeWindow(s), scanTimeWindow(s); got != want {
			t.Fatalf("encodeTimeWindow(%v) = %#x, scan gives %#x", s, got, want)
		}
	}
}
