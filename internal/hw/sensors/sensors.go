// Package sensors emulates the two measurement-only back-ends from the
// paper's Table 1: IBM BlueGene/Q EMON (instantaneous power at node-board
// granularity every 300 ms, via DCA microcontrollers and an FPGA on the
// EMON bus) and Penguin Computing PowerInsight (instantaneous power per
// component at ≥1 kHz via Hall-effect current sensors on a BeagleBone).
//
// Both are sampling front-ends over the true power trace: they add sensor
// noise and calibration offset, then report either raw samples or an
// average. RAPL's counter-based averaging lives in internal/hw/rapl.
package sensors

import (
	"fmt"

	"varpower/internal/units"
	"varpower/internal/xrand"
)

// Sample is one instantaneous power observation.
type Sample struct {
	At    units.Seconds
	Power units.Watts
}

// Spec describes a sampling back-end's characteristics.
type Spec struct {
	Name string
	// Interval between samples.
	Interval units.Seconds
	// NoiseSigma is the per-sample additive noise in watts (ADC noise,
	// switching ripple aliasing).
	NoiseSigma float64
	// OffsetSigma is the per-sensor calibration offset sigma in watts,
	// drawn once per attached sensor.
	OffsetSigma float64
}

// Table-1 measurement techniques.
var (
	// PowerInsight: 1 ms instantaneous sampling, Hall-effect sensor noise.
	PowerInsight = Spec{Name: "PowerInsight", Interval: 0.001, NoiseSigma: 0.6, OffsetSigma: 0.4}
	// EMON: 300 ms instantaneous sampling at node-board granularity.
	EMON = Spec{Name: "BGQ EMON", Interval: 0.300, NoiseSigma: 1.2, OffsetSigma: 0.8}
)

// Sensor samples a power signal according to a Spec. A Sensor is attached
// to a specific measurement point (a socket for PowerInsight, a node board
// for EMON); its calibration offset is fixed at attach time.
type Sensor struct {
	spec   Spec
	offset float64
	rng    *xrand.Stream
}

// Attach creates a sensor at measurement point id with deterministic
// calibration derived from seed.
func Attach(spec Spec, seed uint64, id int) *Sensor {
	rng := xrand.NewKeyed(seed, xrand.HashString(spec.Name), uint64(id))
	return &Sensor{
		spec:   spec,
		offset: rng.Normal(0, spec.OffsetSigma),
		rng:    rng,
	}
}

// Spec returns the sensor's back-end characteristics.
func (s *Sensor) Spec() Spec { return s.spec }

// SampleCount returns how many interval-spaced samples cover a steady
// duration (at least one): the sampling semantics shared by the sensor
// front-ends here and the attribution collector's per-run residual stream
// (internal/attrib), so "sampling at hz" means the same thing in both.
func SampleCount(duration, interval units.Seconds) int {
	if duration <= 0 || interval <= 0 {
		return 1
	}
	n := int(float64(duration) / float64(interval))
	if n < 1 {
		n = 1
	}
	return n
}

// Trace samples a steady power level for the given duration and returns the
// observed time series. The true signal is steady in our steady-state
// simulation; the sensor sees it through noise and its calibration offset.
func (s *Sensor) Trace(truth units.Watts, duration units.Seconds) []Sample {
	if duration <= 0 || s.spec.Interval <= 0 {
		return nil
	}
	n := SampleCount(duration, s.spec.Interval)
	out := make([]Sample, 0, n)
	for i := 0; i < n; i++ {
		v := float64(truth) + s.offset + s.rng.Normal(0, s.spec.NoiseSigma)
		if v < 0 {
			v = 0
		}
		out = append(out, Sample{At: units.Seconds(float64(i) * float64(s.spec.Interval)), Power: units.Watts(v)})
	}
	return out
}

// Average reduces a trace to its mean power. It returns an error for an
// empty trace rather than a silent zero.
func Average(trace []Sample) (units.Watts, error) {
	if len(trace) == 0 {
		return 0, fmt.Errorf("sensors: empty trace")
	}
	var sum float64
	for _, s := range trace {
		sum += float64(s.Power)
	}
	return units.Watts(sum / float64(len(trace))), nil
}

// Measure is the common one-shot read: trace the steady level for the
// duration and return the observed average.
func (s *Sensor) Measure(truth units.Watts, duration units.Seconds) (units.Watts, error) {
	return Average(s.Trace(truth, duration))
}
