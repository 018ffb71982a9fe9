package gpu_test

import (
	"math"
	"slices"
	"testing"

	"varpower/internal/cluster"
	"varpower/internal/hw/gpu"
	"varpower/internal/units"
)

// presets are the two GPU architectures the hybrid systems ship with.
func presets() []*gpu.Arch { return []*gpu.Arch{cluster.K20XArch(), cluster.V100Arch()} }

// testKernel is a compute-heavy kernel that keeps every device well above
// its idle floor across the lockable ladder.
func testKernel(arch *gpu.Arch) gpu.KernelProfile {
	tdp := float64(arch.TDP)
	return gpu.KernelProfile{
		Kernel:           "test",
		DynPower:         units.Watts(0.45 * tdp),
		StaticPower:      units.Watts(0.25 * tdp),
		MemPower:         units.Watts(0.15 * tdp),
		ClockSensitivity: 0.8,
		ResidualSigma:    0.03,
	}
}

func TestSetPowerLimitClampsIntoProgrammableRange(t *testing.T) {
	for _, arch := range presets() {
		c := gpu.NewController(gpu.New(3, arch, 7), gpu.DefaultControl, 7)
		for _, w := range []units.Watts{1, arch.MinLimit - 0.5, arch.MinLimit, (arch.MinLimit + arch.TDP) / 2, arch.TDP, arch.TDP + 0.5, arch.TDP + 50} {
			applied, err := c.SetPowerLimit(w)
			if err != nil {
				t.Fatalf("%s: SetPowerLimit(%v): %v", arch.Name, w, err)
			}
			if applied != arch.ClampLimit(w) || applied < arch.MinLimit || applied > arch.TDP {
				t.Fatalf("%s: SetPowerLimit(%v) applied %v, want ClampLimit %v in [%v, %v]",
					arch.Name, w, applied, arch.ClampLimit(w), arch.MinLimit, arch.TDP)
			}
			if got, ok := c.PowerLimit(); !ok || got != applied {
				t.Fatalf("%s: PowerLimit() = %v, %v after applying %v", arch.Name, got, ok, applied)
			}
		}
		before, _ := c.PowerLimit()
		for _, w := range []units.Watts{0, -5} {
			if _, err := c.SetPowerLimit(w); err == nil {
				t.Fatalf("%s: SetPowerLimit(%v) accepted", arch.Name, w)
			}
		}
		if after, _ := c.PowerLimit(); after != before {
			t.Fatalf("%s: rejected limit changed the programmed one: %v -> %v", arch.Name, before, after)
		}
	}
}

func TestLockClocksQuantisesDownToTheLadder(t *testing.T) {
	for _, arch := range presets() {
		c := gpu.NewController(gpu.New(0, arch, 7), gpu.DefaultControl, 7)
		ladder := arch.SMClocks()
		for in := arch.ClockMin; in <= arch.ClockBoost; in += units.MHz(7) {
			got, err := c.LockClocks(in)
			if err != nil {
				t.Fatalf("%s: LockClocks(%v): %v", arch.Name, in, err)
			}
			// The highest ladder step not above the input.
			want := ladder[0]
			for _, step := range ladder {
				if step <= in {
					want = step
				}
			}
			if got != want || got > in || !slices.Contains(ladder, got) {
				t.Fatalf("%s: LockClocks(%v) = %v, want ladder step %v", arch.Name, in, got, want)
			}
			if locked, ok := c.LockedClock(); !ok || locked != got {
				t.Fatalf("%s: LockedClock() = %v, %v after locking %v", arch.Name, locked, ok, got)
			}
		}
		for _, in := range []units.Hertz{0, -units.MHz(100)} {
			if _, err := c.LockClocks(in); err == nil {
				t.Fatalf("%s: LockClocks(%v) accepted", arch.Name, in)
			}
		}
	}
}

func TestBoardPowerMonotoneAlongLadder(t *testing.T) {
	for _, arch := range presets() {
		k := testKernel(arch)
		for id := 0; id < 16; id++ {
			d := gpu.New(id, arch, 0x5c15)
			prev := units.Watts(math.Inf(-1))
			for _, c := range arch.SMClocks() {
				p := d.BoardPower(k, c)
				if p < prev {
					t.Fatalf("%s device %d: board power fell from %v to %v at %v", arch.Name, id, prev, p, c)
				}
				prev = p
			}
		}
	}
}

func TestClockForPowerInvertsBoardPower(t *testing.T) {
	for _, arch := range presets() {
		k := testKernel(arch)
		for id := 0; id < 16; id++ {
			d := gpu.New(id, arch, 0x5c15)
			for _, c := range arch.SMClocks() {
				p := d.BoardPower(k, c)
				got, ok := d.ClockForPower(k, p)
				if !ok || math.Abs(float64(got-c)) > 1e-9*float64(c) {
					t.Fatalf("%s device %d: ClockForPower(BoardPower(%v) = %v) = %v, %v", arch.Name, id, c, p, got, ok)
				}
			}
		}
	}
}

func TestDeviceFactorsKeyedBySeedAndID(t *testing.T) {
	for _, arch := range presets() {
		a := gpu.New(5, arch, 42).Factors()
		if b := gpu.New(5, arch, 42).Factors(); a != b {
			t.Fatalf("%s: same (seed, id) drew %+v then %+v", arch.Name, a, b)
		}
		if b := gpu.New(6, arch, 42).Factors(); a == b {
			t.Fatalf("%s: devices 5 and 6 drew identical factors %+v", arch.Name, a)
		}
		if b := gpu.New(5, arch, 43).Factors(); a == b {
			t.Fatalf("%s: seeds 42 and 43 drew identical factors %+v", arch.Name, a)
		}
	}
}

func TestArchValidate(t *testing.T) {
	for _, arch := range presets() {
		if err := arch.Validate(); err != nil {
			t.Fatalf("preset %s rejected: %v", arch.Name, err)
		}
	}
	broken := map[string]func(a *gpu.Arch){
		"zero min clock":        func(a *gpu.Arch) { a.ClockMin = 0 },
		"nominal below min":     func(a *gpu.Arch) { a.ClockNom = a.ClockMin - 1 },
		"boost below nominal":   func(a *gpu.Arch) { a.ClockBoost = a.ClockNom - 1 },
		"zero clock step":       func(a *gpu.Arch) { a.ClockStep = 0 },
		"zero TDP":              func(a *gpu.Arch) { a.TDP = 0 },
		"negative min limit":    func(a *gpu.Arch) { a.MinLimit = -1 },
		"min limit at TDP":      func(a *gpu.Arch) { a.MinLimit = a.TDP },
		"negative idle power":   func(a *gpu.Arch) { a.IdlePower = -1 },
		"idle power at TDP":     func(a *gpu.Arch) { a.IdlePower = a.TDP },
		"sub-linear cliff":      func(a *gpu.Arch) { a.CliffExponent = 0.5 },
		"negative leak sigma":   func(a *gpu.Arch) { a.Variation.LeakSigma = -0.1 },
		"turbo correlation > 1": func(a *gpu.Arch) { a.Variation.TurboLeakCorr = 1.5 },
		"negative turbo spread": func(a *gpu.Arch) { a.Variation.TurboSpread = -0.01 },
	}
	for name, breakIt := range broken {
		for _, arch := range presets() {
			breakIt(arch)
			if err := arch.Validate(); err == nil {
				t.Errorf("%s with %s accepted", arch.Name, name)
			}
		}
	}
}

// TestEnforcementErrorBoundedByControlModel: under a programmed power
// limit the controller's operating point differs from the ideal inversion
// of the power curve (Device.Limited at the applied limit) only as the
// control model allows. It exists exactly when the ideal one does, never
// draws more than the applied limit (up to the rounding of the curve's
// inversion, as in TestClockForPowerInvertsBoardPower), and delivers a
// clock between half the ideal one (the controller's loss cap) and the
// ideal one less the mean Overhead; under PerfectControl it is the ideal
// point itself. Both presets, 64 devices, a compute- and a bandwidth-bound
// kernel, 21 limits across [MinLimit, TDP], and the stock, a coarse and
// the perfect control model.
func TestEnforcementErrorBoundedByControlModel(t *testing.T) {
	const devices, steps = 64, 20
	for _, arch := range presets() {
		tdp := float64(arch.TDP)
		kernels := []gpu.KernelProfile{testKernel(arch), {
			Kernel:           "stream",
			DynPower:         units.Watts(0.2 * tdp),
			StaticPower:      units.Watts(0.15 * tdp),
			MemPower:         units.Watts(0.35 * tdp),
			ClockSensitivity: 0.3,
			ResidualSigma:    0.03,
		}}
		// A coarse controller's loss often reaches the loss cap, which the
		// stock jitter almost never does.
		coarse := gpu.ControlModel{Overhead: 0.1, Jitter: 0.3}
		for _, control := range []gpu.ControlModel{gpu.DefaultControl, coarse, gpu.PerfectControl} {
			for id := 0; id < devices; id++ {
				d := gpu.New(id, arch, 0x5c15)
				c := gpu.NewController(d, control, 0x5c15)
				for _, k := range kernels {
					for s := 0; s <= steps; s++ {
						w := arch.MinLimit + units.Watts(float64(s)/steps)*(arch.TDP-arch.MinLimit)
						applied, err := c.SetPowerLimit(w)
						if err != nil {
							t.Fatal(err)
						}
						ideal, idealOK := d.Limited(k, applied)
						op, ok := c.OperatingPoint(k)
						if ok != idealOK {
							t.Fatalf("%s device %d %s at %v: ok %v, ideal ok %v", arch.Name, id, k.Kernel, applied, ok, idealOK)
						}
						if !ok {
							continue
						}
						if float64(op.Power) > float64(applied)*(1+1e-12) {
							t.Fatalf("%s device %d %s: draws %v above the applied limit %v", arch.Name, id, k.Kernel, op.Power, applied)
						}
						if control == gpu.PerfectControl {
							if op != ideal {
								t.Fatalf("%s device %d %s at %v: perfect control resolved %+v, ideal %+v", arch.Name, id, k.Kernel, applied, op, ideal)
							}
							continue
						}
						lo, hi := 0.5*float64(ideal.Clock), (1-control.Overhead)*float64(ideal.Clock)
						if f := float64(op.Clock); f < lo || f > hi {
							t.Fatalf("%s device %d %s at %v: clock %v outside [%v, %v] of ideal %v",
								arch.Name, id, k.Kernel, applied, op.Clock, units.Hertz(lo), units.Hertz(hi), ideal.Clock)
						}
					}
				}
			}
		}
	}
}
