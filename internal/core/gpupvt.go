package core

import (
	"context"
	"fmt"
	"math"
	"slices"

	"varpower/internal/cluster"
	"varpower/internal/hw/gpu"
	"varpower/internal/hw/module"
	"varpower/internal/obs"
	"varpower/internal/units"
	"varpower/internal/workload"
)

// This file holds the GPU device class's tables. The class is calibrated
// by the module pipeline, not a copy of it: its install-time GPU Power
// Variation Table comes from the same sweep as the PVT (see sweep), its
// per-application GPU Power Model Tables are built naively, by
// single-device calibration, or by oracle measurement as BuildPMT builds
// the module ones, and it is budgeted by the same α-kernel (SolveAlpha).

// KernelFor derives the GPU kernel profile of a benchmark's offloaded
// portion from its CPU power profile: compute-bound codes (high frequency
// sensitivity) push boards close to TDP with an SM-heavy power mix, while
// bandwidth-bound codes draw less total power with a larger device-memory
// share. The derivation keeps existing workload names usable on hybrid
// systems without a second benchmark registry.
func KernelFor(bench *workload.Benchmark, arch *module.Arch, garch *gpu.Arch) gpu.KernelProfile {
	s := bench.FrequencySensitivity(arch)
	util := 0.72 + 0.22*s // fraction of TDP the average device draws at ClockNom
	total := util * float64(garch.TDP)
	mem := total * (0.15 + 0.25*(1-s))
	sm := total - mem
	dynFrac := 0.55
	if cpu := float64(bench.Profile.DynPower + bench.Profile.StaticPower); cpu > 0 {
		dynFrac = float64(bench.Profile.DynPower) / cpu
	}
	return gpu.KernelProfile{
		Kernel:           bench.Name,
		DynPower:         units.Watts(sm * dynFrac),
		StaticPower:      units.Watts(sm * (1 - dynFrac)),
		MemPower:         units.Watts(mem),
		ClockSensitivity: 0.55 + 0.4*s,
		ResidualSigma:    bench.Profile.ResidualSigma,
	}
}

// GPUFraction is the share of a benchmark's work the hybrid port offloads
// to the device class: compute-bound codes offload most of their work,
// bandwidth/communication-bound codes less. At nominal clocks the CPU and
// GPU phases overlap, so the class time contributions are
// (1−g)·T and g·T respectively — what makes the class split a balancing
// problem rather than a fixed ratio.
func GPUFraction(bench *workload.Benchmark, arch *module.Arch) float64 {
	return units.Clamp(0.35+0.5*bench.FrequencySensitivity(arch), 0.3, 0.85)
}

// GPUPVTEntry stores one device's variation scales: measured board power
// divided by the population average, at the nominal and minimum SM clocks.
type GPUPVTEntry struct {
	DeviceID int     `json:"device"`
	PowerMax float64 `json:"power_max"`
	PowerMin float64 `json:"power_min"`
}

// GPUPVT is the install-time, application-independent Power Variation Table
// of a system's GPU device class.
type GPUPVT struct {
	System  string        `json:"system"`
	Kernel  string        `json:"kernel"`
	Entries []GPUPVTEntry `json:"entries"`

	// Quarantined lists devices whose install-time measurements fell
	// outside the robust population statistics; their entries carry neutral
	// scales, as on the CPU side.
	Quarantined []int `json:"quarantined,omitempty"`
}

// IsQuarantined reports whether a device's entry is a placeholder.
func (p *GPUPVT) IsQuarantined(deviceID int) bool { return slices.Contains(p.Quarantined, deviceID) }

// deviation is a device's L1 distance from the population mean in GPU PVT
// scales, +Inf for quarantined or unknown devices (see PVT.deviation).
func (p *GPUPVT) deviation(deviceID int) float64 {
	e, err := p.Entry(deviceID)
	if err != nil || p.IsQuarantined(deviceID) {
		return math.Inf(1)
	}
	return math.Abs(e.PowerMax-1) + math.Abs(e.PowerMin-1)
}

// Entry returns the scales for a device ID.
func (p *GPUPVT) Entry(deviceID int) (GPUPVTEntry, error) {
	if deviceID < 0 || deviceID >= len(p.Entries) {
		return GPUPVTEntry{}, fmt.Errorf("core: device %d not in GPU PVT (%d entries)", deviceID, len(p.Entries))
	}
	return p.Entries[deviceID], nil
}

// GPUTestRun reads one device's steady-state board power with the SM clock
// locked — the GPU test-run primitive. It is cheap (no MPI run: kernels are
// bulk-synchronous per device), deterministic, and routed through the
// controller so injected faults perturb it like any production reading.
func GPUTestRun(sys *cluster.System, k gpu.KernelProfile, id int, clock units.Hertz) (units.Watts, error) {
	ctl := sys.GPUCtl(id)
	if _, err := ctl.LockClocks(clock); err != nil {
		return 0, err
	}
	defer ctl.UnlockClocks()
	op, ok := ctl.OperatingPoint(k)
	if !ok {
		return 0, fmt.Errorf("core: GPU test run on device %d found no operating point", id)
	}
	return op.Power, nil
}

// GenerateGPUPVT builds the device-class table by test-running the
// microbenchmark's kernel on every device at the nominal and minimum SM
// clocks, then normalising by the population average: the sweep
// GeneratePVT runs for modules, quarantine rules included. Deterministic
// for every worker count.
func GenerateGPUPVT(ctx context.Context, sys *cluster.System, workers int) (*GPUPVT, error) {
	n := sys.NumGPUs()
	if n == 0 {
		return nil, fmt.Errorf("core: %s has no GPU device class", sys.Spec.Name)
	}
	_, span := obs.StartSpan(ctx, "gpupvt.generate")
	span.SetAttr("system", sys.Spec.Name)
	span.SetInt("devices", n)
	defer span.End()
	k := KernelFor(workload.PVTMicrobenchmark(), sys.Spec.Arch, sys.Spec.GPU.Arch)
	scales, quarantined, err := sweep(ctx, sys, n, 2, workers, func(id int, v []float64) error {
		pair, err := RunGPUTestPair(sys, k, id)
		if err != nil {
			return fmt.Errorf("core: GPU PVT test pair on device %d: %w", id, err)
		}
		v[0], v[1] = float64(pair.AtMax), float64(pair.AtMin)
		return nil
	})
	if err != nil {
		return nil, err
	}
	pvt := &GPUPVT{
		System: sys.Spec.Name, Kernel: k.Kernel,
		Entries: make([]GPUPVTEntry, n), Quarantined: quarantined,
	}
	for id := range pvt.Entries {
		pvt.Entries[id] = GPUPVTEntry{DeviceID: id, PowerMax: scales[2*id], PowerMin: scales[2*id+1]}
	}
	return pvt, nil
}

// GPUPMTEntry holds the two power parameters predicted (or measured) for
// one device: board power at the nominal and minimum SM clocks.
type GPUPMTEntry struct {
	DeviceID int
	PowerMax units.Watts
	PowerMin units.Watts
}

// GPUPMT is the application-dependent Power Model Table of the GPU class.
type GPUPMT struct {
	Kernel  string
	Entries []GPUPMTEntry
}

// Averages returns the mean of each parameter across the table.
func (p *GPUPMT) Averages() GPUPMTEntry {
	var s GPUPMTEntry
	if len(p.Entries) == 0 {
		return s
	}
	for _, e := range p.Entries {
		s.PowerMax += e.PowerMax
		s.PowerMin += e.PowerMin
	}
	n := units.Watts(float64(len(p.Entries)))
	return GPUPMTEntry{PowerMax: s.PowerMax / n, PowerMin: s.PowerMin / n}
}

// Uniform returns a copy in which every device carries the table's average
// parameters (the variation-unaware but application-dependent Pc model).
func (p *GPUPMT) Uniform() *GPUPMT {
	avg := p.Averages()
	out := &GPUPMT{Kernel: p.Kernel, Entries: make([]GPUPMTEntry, len(p.Entries))}
	for i, e := range p.Entries {
		avg.DeviceID = e.DeviceID
		out.Entries[i] = avg
	}
	return out
}

// NaiveGPUPMT builds the variation-unaware model for the device class: the
// board TDP at the nominal clock and the spec-sheet minimum power limit at
// the minimum clock, identical for every device.
func NaiveGPUPMT(arch *gpu.Arch, deviceIDs []int) *GPUPMT {
	min := arch.MinLimit
	if min <= 0 {
		min = units.Watts(0.45 * float64(arch.TDP))
	}
	pmt := &GPUPMT{Kernel: "(naive)", Entries: make([]GPUPMTEntry, len(deviceIDs))}
	for i, id := range deviceIDs {
		pmt.Entries[i] = GPUPMTEntry{DeviceID: id, PowerMax: arch.TDP, PowerMin: min}
	}
	return pmt
}

// GPUTestPair is the result of the two single-device test runs.
type GPUTestPair struct {
	DeviceID int
	AtMax    units.Watts
	AtMin    units.Watts
}

// RunGPUTestPair executes the two single-device test runs on device id.
func RunGPUTestPair(sys *cluster.System, k gpu.KernelProfile, id int) (GPUTestPair, error) {
	garch := sys.Spec.GPU.Arch
	hi, err := GPUTestRun(sys, k, id, garch.ClockNom)
	if err != nil {
		return GPUTestPair{}, fmt.Errorf("core: GPU test run at nominal clock: %w", err)
	}
	lo, err := GPUTestRun(sys, k, id, garch.ClockMin)
	if err != nil {
		return GPUTestPair{}, fmt.Errorf("core: GPU test run at min clock: %w", err)
	}
	return GPUTestPair{DeviceID: id, AtMax: hi, AtMin: lo}, nil
}

// CalibrateGPU performs the PVT calibration for the device class: divide
// the test device's measured powers by its scales to estimate the
// population averages, then multiply by every target device's scales.
func CalibrateGPU(pvt *GPUPVT, test GPUTestPair, kernel string, deviceIDs []int) (*GPUPMT, error) {
	ref, err := pvt.Entry(test.DeviceID)
	if err != nil {
		return nil, fmt.Errorf("core: GPU calibrate: test %w", err)
	}
	avgMax := float64(test.AtMax) / ref.PowerMax
	avgMin := float64(test.AtMin) / ref.PowerMin
	pmt := &GPUPMT{Kernel: kernel, Entries: make([]GPUPMTEntry, len(deviceIDs))}
	for i, id := range deviceIDs {
		e, err := pvt.Entry(id)
		if err != nil {
			return nil, fmt.Errorf("core: GPU calibrate: %w", err)
		}
		pmt.Entries[i] = GPUPMTEntry{
			DeviceID: id,
			PowerMax: units.Watts(avgMax * e.PowerMax),
			PowerMin: units.Watts(avgMin * e.PowerMin),
		}
	}
	return pmt, nil
}

// oracleGPUPMT measures every allocated device directly — the perfect
// calibration bound, as impractical at scale as its CPU counterpart — with
// its span under fw.Trace.
func (fw *Framework) oracleGPUPMT(k gpu.KernelProfile, deviceIDs []int) (*GPUPMT, error) {
	span := fw.Trace.Start("gpupmt.oracle")
	span.SetAttr("kernel", k.Kernel)
	span.SetInt("devices", len(deviceIDs))
	defer span.End()
	entries, err := measureEach(fw.Workers, deviceIDs, func(id int) (GPUPMTEntry, error) {
		pair, err := RunGPUTestPair(fw.Sys, k, id)
		if err != nil {
			return GPUPMTEntry{}, fmt.Errorf("core: oracle GPU PMT device %d: %w", id, err)
		}
		return GPUPMTEntry{DeviceID: id, PowerMax: pair.AtMax, PowerMin: pair.AtMin}, nil
	})
	if err != nil {
		return nil, err
	}
	return &GPUPMT{Kernel: k.Kernel, Entries: entries}, nil
}

// GPUAlloc is the power allocation derived for one device.
type GPUAlloc struct {
	DeviceID int
	Power    units.Watts
}

// GPUAllocation is the α-solve output for the GPU class under its class
// budget: the same kernel as the CPU side with the SM-clock ladder standing
// in for the P-state ladder.
type GPUAllocation struct {
	Solution
	Clock   units.Hertz
	Entries []GPUAlloc
}

// TotalPredicted sums the per-device allocations.
func (a *GPUAllocation) TotalPredicted() units.Watts {
	var sum units.Watts
	for _, e := range a.Entries {
		sum += e.Power
	}
	return sum
}

// SolveGPU runs the α-solve for the device class: the maximum α with
// Σᵢ(α·(Pmax_i − Pmin_i) + Pmin_i) ≤ budget (SolveAlpha, as for modules),
// then per-device allocations at that α, so the two classes compose under
// one hierarchical budget.
func SolveGPU(pmt *GPUPMT, arch *gpu.Arch, budget units.Watts) (*GPUAllocation, error) {
	if len(pmt.Entries) == 0 {
		return nil, fmt.Errorf("core: GPU solve on empty PMT")
	}
	if budget <= 0 {
		return nil, fmt.Errorf("core: non-positive GPU class budget %v", budget)
	}
	var sumMin, sumRange float64
	for _, e := range pmt.Entries {
		min, max := float64(e.PowerMin), float64(e.PowerMax)
		if min < 0 || max < min {
			return nil, fmt.Errorf("core: device %d has inverted power range [%v, %v]", e.DeviceID, min, max)
		}
		sumMin += min
		sumRange += max - min
	}
	sol, shrink := SolveAlpha(sumMin, sumRange, budget)
	alloc := &GPUAllocation{
		Solution: sol,
		Clock:    units.Hertz(units.Lerp(float64(arch.ClockMin), float64(arch.ClockNom), sol.Alpha)),
		Entries:  make([]GPUAlloc, len(pmt.Entries)),
	}
	for i, e := range pmt.Entries {
		alloc.Entries[i] = GPUAlloc{
			DeviceID: e.DeviceID,
			Power:    units.Watts(units.Lerp(float64(e.PowerMin), float64(e.PowerMax), alloc.Alpha) * shrink),
		}
	}
	recordSolve(alloc.Solution)
	return alloc, nil
}
