package core

import (
	"context"
	"fmt"

	"varpower/internal/cluster"
	"varpower/internal/flight"
	"varpower/internal/hw/gpu"
	"varpower/internal/measure"
	"varpower/internal/units"
	"varpower/internal/workload"
)

// HeteroFramework extends the CPU pipeline to heterogeneous systems: the
// same install-time-table → test-run → α-solve → enforce loop, run once per
// device class under a hierarchical split of the system budget. The CPU
// half is the embedded Framework, untouched; the GPU half mirrors it
// through the device-class tables in gpupvt.go.
type HeteroFramework struct {
	*Framework
	GPVT *GPUPVT
}

// NewHeteroFramework instantiates the framework on a hybrid system,
// generating both install-time tables (nil micro selects the paper's
// choice).
func NewHeteroFramework(sys *cluster.System, micro *workload.Benchmark, workers int) (*HeteroFramework, error) {
	if !sys.Spec.Hybrid() {
		return nil, fmt.Errorf("core: %s has no GPU device class; use NewFramework", sys.Spec.Name)
	}
	fw, err := NewFrameworkWorkers(sys, micro, workers)
	if err != nil {
		return nil, err
	}
	gpvt, err := GenerateGPUPVT(context.Background(), sys, workers)
	if err != nil {
		return nil, err
	}
	return &HeteroFramework{Framework: fw, GPVT: gpvt}, nil
}

// NewHeteroWithTables binds previously generated (e.g. loaded or restored)
// tables.
func NewHeteroWithTables(sys *cluster.System, pvt *PVT, gpvt *GPUPVT) (*HeteroFramework, error) {
	fw, err := NewFrameworkWithPVT(sys, pvt)
	if err != nil {
		return nil, err
	}
	if gpvt == nil || len(gpvt.Entries) == 0 {
		return nil, fmt.Errorf("core: hetero framework needs a non-empty GPU PVT")
	}
	if gpvt.System != sys.Spec.Name {
		return nil, fmt.Errorf("core: GPU PVT is for %q, system is %q", gpvt.System, sys.Spec.Name)
	}
	return &HeteroFramework{Framework: fw, GPVT: gpvt}, nil
}

// Clone returns a framework over an independent replica of the system,
// sharing both (read-only) install-time tables; see Framework.Clone.
func (hf *HeteroFramework) Clone() *HeteroFramework {
	return &HeteroFramework{Framework: hf.Framework.Clone(), GPVT: hf.GPVT}
}

// AllDevices returns the full GPU device allocation [0, NumGPUs) — jobs on
// the hybrid presets are whole-class, matching the CPU side's whole-machine
// sweeps.
func (hf *HeteroFramework) AllDevices() []int {
	ids := make([]int, hf.Sys.NumGPUs())
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// BuildGPUPMT constructs the scheme's power model for the allocated
// devices from the same measurement BuildPMT makes for modules (see
// Scheme.measurement): Naive uses the spec sheet (TDP / minimum limit), Pc
// measures all devices but averages the table, VaPc/VaFs calibrate one test
// device through the GPU PVT, and the oracle schemes measure every device.
func (hf *HeteroFramework) BuildGPUPMT(bench *workload.Benchmark, deviceIDs []int, scheme Scheme) (*GPUPMT, error) {
	if len(deviceIDs) == 0 {
		return nil, fmt.Errorf("core: empty GPU device allocation")
	}
	garch := hf.Sys.Spec.GPU.Arch
	k := KernelFor(bench, hf.Sys.Spec.Arch, garch)
	switch scheme.measurement() {
	case measureNone:
		return NaiveGPUPMT(garch, deviceIDs), nil
	case measureOracle:
		pmt, err := hf.oracleGPUPMT(k, deviceIDs)
		if err == nil && scheme == Pc {
			pmt = pmt.Uniform()
		}
		return pmt, err
	case measureCalibration:
		pair, err := RunGPUTestPair(hf.Sys, k, closestToMean(deviceIDs, -1, hf.GPVT.deviation))
		if err != nil {
			return nil, err
		}
		return CalibrateGPU(hf.GPVT, pair, k.Kernel, deviceIDs)
	default:
		return nil, fmt.Errorf("core: unknown scheme %v", scheme)
	}
}

// gpuFsMargin measures the GPU model's relative prediction error on a
// held-out device and returns it clamped to the same [0.005, 0.08] reserve
// band the CPU FS margin uses — locked clocks enforce no power bound, so
// the GPU class needs the identical guard.
func (hf *HeteroFramework) gpuFsMargin(pmt *GPUPMT, k gpu.KernelProfile, deviceIDs []int) (float64, error) {
	test := closestToMean(deviceIDs, -1, hf.GPVT.deviation)
	holdout := closestToMean(deviceIDs, test, hf.GPVT.deviation)
	pair, err := RunGPUTestPair(hf.Sys, k, holdout)
	if err != nil {
		return 0, fmt.Errorf("core: GPU FS margin holdout run: %w", err)
	}
	var pred *GPUPMTEntry
	for i := range pmt.Entries {
		if pmt.Entries[i].DeviceID == holdout {
			pred = &pmt.Entries[i]
			break
		}
	}
	if pred == nil {
		return 0, fmt.Errorf("core: holdout device %d missing from GPU PMT", holdout)
	}
	margin := (relErr(float64(pred.PowerMax), float64(pair.AtMax)) +
		relErr(float64(pred.PowerMin), float64(pair.AtMin))) / 2
	return units.Clamp(margin, 0.005, 0.08), nil
}

// HeteroAllocation is the hierarchical solve's output: the class split and
// the per-class α-solves it funded.
type HeteroAllocation struct {
	Splitter  Splitter
	Budget    units.Watts
	CPUBudget units.Watts
	GPUBudget units.Watts
	CPU       *Allocation
	GPU       *GPUAllocation
	// PredictedTime is the model's completion-time estimate: the slower of
	// the two overlapped class phases at their solved throttle levels.
	PredictedTime units.Seconds
}

// classTimes builds the predicted class-time models the splitter and the
// final estimate share. The hybrid port overlaps the phases: the CPU keeps
// (1−g) of the nominal work, the device class takes g, and each side
// stretches by its own frequency-sensitivity law as its clock drops.
func (hf *HeteroFramework) classTimes(bench *workload.Benchmark) (cpuTime, gpuTime func(alpha float64) units.Seconds) {
	arch := hf.Sys.Spec.Arch
	garch := hf.Sys.Spec.GPU.Arch
	k := KernelFor(bench, arch, garch)
	s := bench.FrequencySensitivity(arch)
	sg := k.ClockSensitivity
	g := GPUFraction(bench, arch)
	tnom := units.Seconds(float64(bench.SequentialTime(arch, arch.FNom, 1)) * float64(bench.Iterations))
	cpuTime = func(alpha float64) units.Seconds {
		fr := units.Lerp(float64(arch.FMin), float64(arch.FNom), alpha) / float64(arch.FNom)
		return units.Seconds(float64(tnom) * (1 - g) / (1 - s + s*fr))
	}
	gpuTime = func(alpha float64) units.Seconds {
		cr := units.Lerp(float64(garch.ClockMin), float64(garch.ClockNom), alpha) / float64(garch.ClockNom)
		return units.Seconds(float64(tnom) * g / (1 - sg + sg*cr))
	}
	return cpuTime, gpuTime
}

// SolveHetero runs the hierarchical budgeting pipeline: build both class
// models per the scheme, split the system budget across the classes under
// the chosen policy, then run each class's α-solve on its share.
func (hf *HeteroFramework) SolveHetero(bench *workload.Benchmark, moduleIDs, deviceIDs []int,
	budget units.Watts, scheme Scheme, splitter Splitter) (*HeteroAllocation, *PMT, *GPUPMT, error) {
	span := hf.startSpan("hetero.solve", bench, budget, scheme)
	span.SetAttr("splitter", splitter.String())
	defer span.End()
	in := &HeteroFramework{Framework: hf.under(span), GPVT: hf.GPVT}
	pmt, err := in.BuildPMT(bench, moduleIDs, scheme)
	if err != nil {
		return nil, nil, nil, err
	}
	gpmt, err := in.BuildGPUPMT(bench, deviceIDs, scheme)
	if err != nil {
		return nil, nil, nil, err
	}
	var cpuMin, cpuMax units.Watts
	for _, e := range pmt.Entries {
		cpuMin += e.ModuleMin()
		cpuMax += e.ModuleMax()
	}
	var gpuMin, gpuMax units.Watts
	for _, e := range gpmt.Entries {
		gpuMin += e.PowerMin
		gpuMax += e.PowerMax
	}
	cpuTime, gpuTime := hf.classTimes(bench)
	shares, err := SplitBudget(splitter, budget, []ClassDemand{
		{Class: "cpu", Min: cpuMin, Max: cpuMax, TimeAt: cpuTime},
		{Class: "gpu", Min: gpuMin, Max: gpuMax, TimeAt: gpuTime},
	})
	if err != nil {
		return nil, nil, nil, err
	}
	cpuBudget, gpuBudget := shares[0], shares[1]
	cpuSolve, gpuSolve := cpuBudget, gpuBudget
	if scheme == VaFs {
		garch := hf.Sys.Spec.GPU.Arch
		k := KernelFor(bench, hf.Sys.Spec.Arch, garch)
		m, err := hf.fsMargin(pmt, bench, moduleIDs)
		if err != nil {
			return nil, nil, nil, err
		}
		cpuSolve = units.Watts(float64(cpuBudget) * (1 - m))
		gm, err := hf.gpuFsMargin(gpmt, k, deviceIDs)
		if err != nil {
			return nil, nil, nil, err
		}
		gpuSolve = units.Watts(float64(gpuBudget) * (1 - gm))
	}
	cpuAlloc, err := Solve(pmt, hf.Sys.Spec.Arch, cpuSolve)
	if err != nil {
		return nil, nil, nil, err
	}
	cpuAlloc.Budget = cpuBudget
	gpuAlloc, err := SolveGPU(gpmt, hf.Sys.Spec.GPU.Arch, gpuSolve)
	if err != nil {
		return nil, nil, nil, err
	}
	gpuAlloc.Budget = gpuBudget
	h := &HeteroAllocation{
		Splitter: splitter, Budget: budget,
		CPUBudget: cpuBudget, GPUBudget: gpuBudget,
		CPU: cpuAlloc, GPU: gpuAlloc,
	}
	ct, gt := cpuTime(cpuAlloc.Alpha), gpuTime(gpuAlloc.Alpha)
	h.PredictedTime = ct
	if gt > ct {
		h.PredictedTime = gt
	}
	return h, pmt, gpmt, nil
}

// HeteroRun is one complete heterogeneous scheme evaluation.
type HeteroRun struct {
	Scheme   Scheme
	Splitter Splitter
	Bench    string
	Budget   units.Watts
	Alloc    *HeteroAllocation
	// CPU is the measured CPU-class final run (its Elapsed covers the full
	// nominal iteration count; the hybrid overlap is applied in Elapsed).
	CPU measure.Result
	// GPUPower is the steady-state board power summed over the class.
	GPUPower units.Watts
	// MinClock is the slowest delivered SM clock — the straggler that sets
	// the class's completion time, the GPU variation story in one number.
	MinClock units.Hertz
	// Elapsed is the job's completion time: the slower of the overlapped
	// class phases.
	Elapsed units.Seconds
	// AvgPower is the job's steady-state system power (CPU class + GPU
	// class).
	AvgPower units.Watts
	// Energy is AvgPower integrated over Elapsed.
	Energy units.Joules
}

// ErrClassBudgetInfeasible reports that one class's share cannot be met
// even at its floor operating point.
type ErrClassBudgetInfeasible struct {
	Class    string
	Scheme   Scheme
	Splitter Splitter
	Budget   units.Watts
}

// Error implements error.
func (e ErrClassBudgetInfeasible) Error() string {
	return fmt.Sprintf("core: %s class budget %v infeasible under %v/%v",
		e.Class, e.Budget, e.Scheme, e.Splitter)
}

// RunHetero executes the full heterogeneous pipeline for one (application,
// budget, scheme, splitter) combination.
func (hf *HeteroFramework) RunHetero(bench *workload.Benchmark, moduleIDs, deviceIDs []int,
	budget units.Watts, scheme Scheme, splitter Splitter) (*HeteroRun, error) {
	span := hf.startSpan("hetero.run", bench, budget, scheme)
	span.SetAttr("splitter", splitter.String())
	defer span.End()
	in := &HeteroFramework{Framework: hf.under(span), GPVT: hf.GPVT}
	alloc, _, _, err := in.SolveHetero(bench, moduleIDs, deviceIDs, budget, scheme, splitter)
	if err != nil {
		return nil, err
	}
	if !alloc.CPU.Feasible {
		return nil, ErrClassBudgetInfeasible{Class: "cpu", Scheme: scheme, Splitter: splitter, Budget: alloc.CPUBudget}
	}
	if !alloc.GPU.Feasible {
		return nil, ErrClassBudgetInfeasible{Class: "gpu", Scheme: scheme, Splitter: splitter, Budget: alloc.GPUBudget}
	}
	return in.ExecuteHetero(bench, moduleIDs, deviceIDs, alloc, scheme)
}

// ExecuteHetero enforces a hierarchical allocation and runs the
// application. The CPU class goes through the embedded Framework (RAPL caps
// or pinned P-states); the GPU class programs each device's controller — PC
// schemes write per-device board power limits, FS schemes lock the common
// α-derived application clock — then resolves the steady-state operating
// points, whose slowest delivered clock sets the class's completion time.
func (hf *HeteroFramework) ExecuteHetero(bench *workload.Benchmark, moduleIDs, deviceIDs []int,
	alloc *HeteroAllocation, scheme Scheme) (*HeteroRun, error) {
	if len(alloc.GPU.Entries) != len(deviceIDs) {
		return nil, fmt.Errorf("core: GPU allocation covers %d devices, job has %d", len(alloc.GPU.Entries), len(deviceIDs))
	}
	garch := hf.Sys.Spec.GPU.Arch
	k := KernelFor(bench, hf.Sys.Spec.Arch, garch)
	ops := make([]gpuResolved, len(deviceIDs))
	for i, id := range deviceIDs {
		ctl := hf.Sys.GPUCtl(id)
		if scheme.UsesFS() {
			if _, err := ctl.LockClocks(alloc.GPU.Clock); err != nil {
				return nil, err
			}
		} else {
			w := alloc.GPU.Entries[i].Power
			applied, err := ctl.SetPowerLimit(w)
			if err != nil {
				return nil, fmt.Errorf("core: device %d limit %v: %w", id, w, err)
			}
			ops[i].limit = applied
		}
		op, ok := ctl.OperatingPoint(k)
		if !ok {
			return nil, fmt.Errorf("core: device %d has no feasible operating point under %v", id, scheme)
		}
		ops[i].op = op
	}
	res, err := hf.Execute(bench, moduleIDs, alloc.CPU, scheme)
	if err != nil {
		return nil, err
	}
	g := GPUFraction(bench, hf.Sys.Spec.Arch)
	minClock := ops[0].op.Clock
	var gpuPower units.Watts
	for _, r := range ops {
		gpuPower += r.op.Power
		if r.op.Clock < minClock {
			minClock = r.op.Clock
		}
	}
	sg := k.ClockSensitivity
	rmin := float64(minClock) / float64(garch.ClockNom)
	tnom := units.Seconds(float64(bench.SequentialTime(hf.Sys.Spec.Arch, hf.Sys.Spec.Arch.FNom, 1)) * float64(bench.Iterations))
	gpuElapsed := units.Seconds(float64(tnom) * g / (1 - sg + sg*rmin))
	cpuElapsed := units.Seconds(float64(res.Elapsed) * (1 - g))
	elapsed := cpuElapsed
	if gpuElapsed > elapsed {
		elapsed = gpuElapsed
	}
	run := &HeteroRun{
		Scheme: scheme, Splitter: alloc.Splitter, Bench: bench.Name, Budget: alloc.Budget,
		Alloc: alloc, CPU: res,
		GPUPower: gpuPower, MinClock: minClock,
		Elapsed:  elapsed,
		AvgPower: res.AvgTotalPower + gpuPower,
	}
	run.Energy = units.Energy(run.AvgPower, run.Elapsed)
	hf.recordGPU(bench, scheme, deviceIDs, alloc, ops, gpuElapsed)
	return run, nil
}

// recordGPU commits the GPU class's side of the run to the flight recorder:
// one capture whose lanes sit above the CPU modules (at GPUFaultOffset),
// with the control-plane events and a synthesized counter track per device.
// gpuResolved pairs a device's resolved operating point with the limit the
// run programmed on it (0 under FS enforcement).
type gpuResolved struct {
	op    gpu.OperatingPoint
	limit units.Watts
}

func (hf *HeteroFramework) recordGPU(bench *workload.Benchmark, scheme Scheme, deviceIDs []int,
	alloc *HeteroAllocation, ops []gpuResolved, elapsed units.Seconds) {
	if hf.Recorder == nil {
		return
	}
	garch := hf.Sys.Spec.GPU.Arch
	cap := hf.Recorder.NewCapture(fmt.Sprintf("%s/%v/gpu", bench.Name, scheme))
	offset := hf.Sys.GPUFaultOffset()
	for i, id := range deviceIDs {
		lane := offset + id
		if scheme.UsesFS() {
			cap.Event(lane, flight.EventGPUClockLock, float64(alloc.GPU.Clock))
		} else {
			cap.Event(lane, flight.EventGPULimitSet, float64(ops[i].limit))
		}
		if ops[i].op.Throttled {
			cap.Event(lane, flight.EventGPUThrottle, float64(ops[i].op.Clock))
		}
		cap.SynthesizeGPU(lane, ops[i].op.Power, ops[i].limit, ops[i].op.Clock, garch.TDP, elapsed)
	}
	cap.Seal(elapsed)
	hf.Recorder.Commit(cap)
}
