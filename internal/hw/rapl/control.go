package rapl

import (
	"fmt"
	"math"

	"varpower/internal/hw/module"
	"varpower/internal/units"
	"varpower/internal/xrand"
)

// This file simulates RAPL's *transient* behaviour: the running-average
// control loop the hardware runs every millisecond window, which the
// steady-state Controller abstracts into a single operating point plus a
// ControlModel. SimulateControl exists to ground that abstraction: it
// integrates the closed loop explicitly, and FitControlModel measures the
// loop's average frequency shortfall and spread — the quantities
// DefaultControl hard-codes.
//
// Loop model (matching the architecture of the real firmware):
//
//   - each window, the controller observes the energy consumed over the
//     averaging horizon and compares the implied average power with the
//     programmed limit;
//   - it adjusts the requested P-state ratio proportionally to the error
//     (DVFS granularity is finite: the request quantises to 100 MHz);
//   - workload power at the delivered frequency follows the module's
//     curve, with per-window measurement noise (the firmware's own power
//     estimate is model-based and noisy).
type controlTrace struct {
	Freq  []units.Hertz
	Power []units.Watts
}

// ControlSim configures the transient simulation.
type ControlSim struct {
	// Window is the averaging window (the paper uses 1 ms).
	Window units.Seconds
	// Gain is the proportional controller gain in (ratio steps)/(watt of
	// error); the firmware is conservative to avoid oscillation.
	Gain float64
	// NoiseSigma is the per-window relative error of the firmware's power
	// estimate.
	NoiseSigma float64
	// Seed drives the noise stream.
	Seed uint64
}

// DefaultControlSim approximates Ivy Bridge RAPL firmware behaviour: a
// fairly aggressive proportional step (the firmware reacts within a
// window) against a model-based power estimate that is a few percent
// noisy. These values reproduce the ≈2% mean frequency shortfall the
// steady-state DefaultControl encodes.
var DefaultControlSim = ControlSim{
	Window:     0.001,
	Gain:       0.25,
	NoiseSigma: 0.05,
	Seed:       1,
}

// SimulateControl integrates the closed loop for the given duration and
// returns the delivered average frequency and average power, plus the
// frequency trace's standard deviation (the oscillation FS avoids).
//
// Invariants it demonstrates: the average power converges to at most the
// limit, and the average frequency falls slightly below the ideal
// steady-state inversion — the controller spends part of its time below
// the setpoint to stay safe, which is exactly the Overhead of
// ControlModel.
func SimulateControl(m *module.Module, p module.PowerProfile, limit units.Watts,
	sim ControlSim, duration units.Seconds) (avgFreq units.Hertz, avgPower units.Watts, freqStd float64, err error) {

	if limit <= m.IdleFloor() {
		return 0, 0, 0, fmt.Errorf("rapl: limit %v below idle floor %v", limit, m.IdleFloor())
	}
	if sim.Window <= 0 || duration < sim.Window {
		return 0, 0, 0, fmt.Errorf("rapl: simulation shorter than one window")
	}
	arch := m.Arch
	rng := xrand.NewKeyed(sim.Seed, xrand.HashString("raplsim"), uint64(m.ID), xrand.HashString(p.Workload))

	steps := int(float64(duration) / float64(sim.Window))
	// Ratio in 100 MHz units, like IA32_PERF_CTL.
	ratio := arch.FNom.MHz() / 100
	minRatio := 4.0 // below ~400 MHz the part duty-cycles instead
	maxRatio := arch.FNom.MHz() / 100

	cv := m.Curve(p)
	var trace controlTrace
	var sumF, sumP float64
	for i := 0; i < steps; i++ {
		f := units.MHz(ratio * 100)
		power := cv.CPUPower(f)
		// The firmware's estimate of that power is noisy.
		est := float64(power) * (1 + rng.Normal(0, sim.NoiseSigma))
		errW := est - float64(limit)
		// Proportional step, quantised to whole ratio steps.
		ratio -= math.Round(sim.Gain * errW)
		if ratio < minRatio {
			ratio = minRatio
		}
		if ratio > maxRatio {
			ratio = maxRatio
		}
		// The *delivered* power this window cannot exceed the limit: the
		// clamp bit forces duty cycling within the window if the DVFS
		// point overshoots — which also cuts the window's effective
		// (throughput) frequency by the duty factor. This asymmetry is the
		// root of the controller's net frequency shortfall: overshoot
		// windows lose real performance, undershoot windows merely leave
		// headroom.
		delivered := power
		eff := f
		if delivered > limit {
			duty := float64(limit) / float64(delivered)
			delivered = limit
			eff = units.Hertz(float64(f) * duty)
		}
		trace.Freq = append(trace.Freq, eff)
		trace.Power = append(trace.Power, delivered)
		sumF += float64(eff)
		sumP += float64(delivered)
	}
	n := float64(steps)
	avgFreq = units.Hertz(sumF / n)
	avgPower = units.Watts(sumP / n)
	var sq float64
	for _, f := range trace.Freq {
		d := float64(f) - float64(avgFreq)
		sq += d * d
	}
	freqStd = math.Sqrt(sq/n) / 1e9 // GHz
	return avgFreq, avgPower, freqStd, nil
}

// FitControlModel derives a ControlModel empirically: it runs the
// transient simulation on a sample of modules and cap levels, compares the
// delivered average frequency with the ideal steady-state inversion, and
// returns the mean shortfall (Overhead) and its spread (Jitter). This is
// how DefaultControl's constants were obtained; the ablation benchmark
// BenchmarkAblationJitter measures their end-to-end effect.
func FitControlModel(mods []*module.Module, p module.PowerProfile, caps []units.Watts,
	sim ControlSim, duration units.Seconds) (ControlModel, error) {

	var losses []float64
	for _, m := range mods {
		cv := m.Curve(p)
		for _, cap := range caps {
			ideal, ok := cv.Capped(cap)
			if !ok || ideal.Throttled {
				continue
			}
			got, _, _, err := SimulateControl(m, p, cap, sim, duration)
			if err != nil {
				return ControlModel{}, err
			}
			loss := 1 - float64(got)/float64(ideal.Freq)
			if loss < 0 {
				loss = 0
			}
			losses = append(losses, loss)
		}
	}
	if len(losses) == 0 {
		return ControlModel{}, fmt.Errorf("rapl: no feasible (module, cap) pairs to fit")
	}
	var sum float64
	for _, l := range losses {
		sum += l
	}
	mean := sum / float64(len(losses))
	var sq float64
	for _, l := range losses {
		d := l - mean
		sq += d * d
	}
	return ControlModel{
		Overhead: mean,
		Jitter:   math.Sqrt(sq / float64(len(losses))),
	}, nil
}
