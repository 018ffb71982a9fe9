package rapl

import (
	"errors"
	"math"
	"testing"

	"varpower/internal/hw/module"
	"varpower/internal/hw/msr"
	"varpower/internal/units"
)

// referencePoll is the poll loop PollEnergy replaces: a Snapshot, then per
// chunk AccountEnergy, a Snapshot and the Since from the one before.
func referencePoll(c *Controller, p module.PowerProfile, op module.OperatingPoint, busy, wait units.Seconds, chunks int) (pkg, dram units.Joules) {
	prev, _ := c.Snapshot()
	for ch := 0; ch < chunks; ch++ {
		c.AccountEnergy(p, op, busy, wait)
		now, _ := c.Snapshot()
		dp, dd := now.Since(prev)
		pkg += dp
		dram += dd
		prev = now
	}
	return pkg, dram
}

// FuzzPollEnergy: PollEnergy returns bit for bit the energies of the
// reference loop on a second controller in the same state, and leaves the
// same 64-bit extension and counters behind. The counters start within
// 2^24 units (256 J) of the 32-bit wrap, optionally after a read that
// initialised the extension and more energy that it has not seen yet;
// powers lie in [0, 1000) W and busy and wait times in [0, 2000) s (NaN
// and ±Inf fuzz values stay NaN), so a chunk's quantum reaches 2 MJ, far
// past the 16,384 J at which AccountEnergy steps it; 1–40 chunks.
func FuzzPollEnergy(f *testing.F) {
	f.Add(uint32(1), uint32(1), false, 0.0, 40.0, 6.0, 30.0, 5.0, uint8(9))        // small quanta
	f.Add(uint32(0), uint32(70000), true, 1e5, 100.0, 12.0, 200.0, 3.0, uint8(39)) // stepped package, wraps
	f.Add(uint32(5), uint32(9), false, 0.0, 999.0, 999.0, 1999.0, 1999.0, uint8(0))
	f.Add(uint32(1<<24-1), uint32(0), true, 16384.0, 81.92, 0.5, 200.0, 0.0, uint8(17)) // pkg exactly 16,384 J
	f.Add(uint32(3), uint32(3), false, 0.0, math.NaN(), 10.0, 30.0, 0.0, uint8(4))
	f.Fuzz(func(t *testing.T, pkgBack, dramBack uint32, primed bool, unseen, cpuW, dramW, busy, wait float64, chunks uint8) {
		within := func(x, hi float64) float64 { return math.Mod(math.Abs(x), hi) }
		p := testProfile()
		op := module.OperatingPoint{Freq: units.GHz(2), CPUPower: units.Watts(within(cpuW, 1000)), DramPower: units.Watts(within(dramW, 1000))}
		b, w := units.Seconds(within(busy, 2000)), units.Seconds(within(wait, 2000))
		n := 1 + int(chunks%40)

		// Raw register r is r/2^16 J accumulated from zero, exactly.
		const wrap = 1 << 32
		startPkg := float64(wrap-1-uint64(pkgBack)%(1<<24)) / (1 << 16)
		startDram := float64(wrap-1-uint64(dramBack)%(1<<24)) / (1 << 16)
		extra := within(unseen, 1e5)
		ctls := [2]*Controller{newController(PerfectControl), newController(PerfectControl)}
		for _, c := range ctls {
			c.dev.AccumulateEnergy(startPkg, startDram)
			if primed {
				if _, err := c.Snapshot(); err != nil {
					t.Fatal(err)
				}
				c.dev.AccumulateEnergy(extra, extra/3)
			}
		}
		got, ref := ctls[0], ctls[1]
		gp, gd, err := got.PollEnergy(p, op, b, w, n)
		if err != nil {
			t.Fatal(err)
		}
		wp, wd := referencePoll(ref, p, op, b, w, n)
		if math.Float64bits(float64(gp)) != math.Float64bits(float64(wp)) || math.Float64bits(float64(gd)) != math.Float64bits(float64(wd)) {
			t.Fatalf("PollEnergy %v/%v J, reference %v/%v J", gp, gd, wp, wd)
		}
		type ext struct {
			extPkg, extDram, lastPkg, lastDram uint64
			extInit                            bool
		}
		ge := ext{got.extPkg, got.extDram, got.lastPkg, got.lastDram, got.extInit}
		we := ext{ref.extPkg, ref.extDram, ref.lastPkg, ref.lastDram, ref.extInit}
		if ge != we {
			t.Fatalf("extension %+v, reference %+v", ge, we)
		}
		// The counters, including their uncommitted fractions, match too:
		// the same further energy reads the same.
		for _, c := range ctls {
			c.dev.AccumulateEnergy(0.75, 0.25)
		}
		for _, reg := range []uint64{msr.PkgEnergyStatus, msr.DramEnergyStatus} {
			gv, _ := got.dev.Read(reg)
			wv, _ := ref.dev.Read(reg)
			if gv != wv {
				t.Fatalf("register %#x reads %#x, reference %#x", reg, gv, wv)
			}
		}
	})
}

// interceptAll passes every energy read through unchanged.
type interceptAll struct{}

func (interceptAll) InterceptRead(_ uint64, _ float64, raw, _ uint64, _ bool) (uint64, error) {
	return raw, nil
}

// TestPollEnergyRefusesInterceptedDevice: a device whose reads go through
// a fault interceptor is refused before anything is read or accumulated.
func TestPollEnergyRefusesInterceptedDevice(t *testing.T) {
	c := newController(PerfectControl)
	c.dev.SetReadInterceptor(interceptAll{})
	op, ok := c.OperatingPoint(testProfile())
	if !ok {
		t.Fatal("uncapped operating point infeasible")
	}
	if _, _, err := c.PollEnergy(testProfile(), op, 30, 5, 3); !errors.Is(err, msr.ErrIntercepted) {
		t.Fatalf("error %v, want msr.ErrIntercepted", err)
	}
	if c.extInit {
		t.Fatal("a refused poll initialised the extension")
	}
	c.dev.SetReadInterceptor(nil)
	if pkg, _ := c.dev.Read(msr.PkgEnergyStatus); pkg != 0 {
		t.Fatalf("a refused poll accumulated %#x units", pkg)
	}
}
