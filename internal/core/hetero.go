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

// The heterogeneous pipeline runs the Framework's install-time-table →
// test-run → α-solve → enforce loop once per device class under a
// hierarchical split of the system budget. Both classes run the module
// pipeline; the GPU class is described to it by gpuClass (gpupvt.go).

// NewHeteroFramework instantiates the framework on a hybrid system,
// generating both install-time tables (nil micro selects the paper's
// choice).
func NewHeteroFramework(sys *cluster.System, micro *workload.Benchmark, workers int) (*Framework, error) {
	if !sys.Spec.Hybrid() {
		return nil, fmt.Errorf("core: %s has no GPU device class; use NewFramework", sys.Spec.Name)
	}
	fw, err := NewFrameworkWorkers(sys, micro, workers)
	if err != nil {
		return nil, err
	}
	if fw.GPVT, err = GenerateGPUPVT(context.Background(), sys, workers); err != nil {
		return nil, err
	}
	return fw, nil
}

// AllDevices returns the full GPU device allocation [0, NumGPUs) — jobs on
// the hybrid presets are whole-class, matching the CPU side's whole-machine
// sweeps.
func (fw *Framework) AllDevices() []int {
	ids := make([]int, fw.Sys.NumGPUs())
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
func (fw *Framework) BuildGPUPMT(bench *workload.Benchmark, deviceIDs []int, scheme Scheme) (*PMT, error) {
	pmt, err := fw.measurePMT(gpuClass, bench, deviceIDs, scheme)
	if err != nil {
		return nil, err
	}
	return pmt.forScheme(scheme), nil
}

// HeteroAllocation is the hierarchical solve's output: the class split and
// the per-class α-solves it funded.
type HeteroAllocation struct {
	Splitter  Splitter
	Budget    units.Watts
	CPUBudget units.Watts
	GPUBudget units.Watts
	CPU       *Allocation
	// GPU is the device class's solve: Freq is the SM clock to lock and
	// each entry's Pmodule the device's board power limit.
	GPU *Allocation
	// PredictedTime is the model's completion-time estimate: the slower of
	// the two overlapped class phases at their solved throttle levels.
	PredictedTime units.Seconds
}

// classTimes builds the predicted class-time models the splitter and the
// final estimate share. The hybrid port overlaps the phases: the CPU keeps
// (1−g) of the nominal work, the device class takes g, and each side
// stretches by its own frequency-sensitivity law as its clock drops.
func (fw *Framework) classTimes(bench *workload.Benchmark) (cpuTime, gpuTime func(alpha float64) units.Seconds) {
	arch := fw.Sys.Spec.Arch
	garch := fw.Sys.Spec.GPU.Arch
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
// models per the scheme (VaFs margins included), split the system budget
// across the classes under the chosen policy, then run each class's α-solve
// on its share less its margin. The framework needs a GPU PVT.
func (fw *Framework) SolveHetero(bench *workload.Benchmark, moduleIDs, deviceIDs []int,
	budget units.Watts, scheme Scheme, splitter Splitter) (*HeteroAllocation, *PMT, *PMT, error) {
	if fw.GPVT == nil {
		return nil, nil, nil, fmt.Errorf("core: %s framework has no GPU PVT", fw.Sys.Spec.Name)
	}
	span := fw.startSpan("hetero.solve", bench, budget, scheme)
	span.SetAttr("splitter", splitter.String())
	defer span.End()
	in := fw.under(span)
	m, err := in.BuildModel(bench, moduleIDs, scheme)
	if err != nil {
		return nil, nil, nil, err
	}
	gms, err := in.buildModels(gpuClass, bench, deviceIDs, []Scheme{scheme})
	if err != nil {
		return nil, nil, nil, err
	}
	gm := gms[0]
	cpuTime, gpuTime := fw.classTimes(bench)
	shares, err := SplitBudget(splitter, budget, []ClassDemand{
		m.PMT.demand("cpu", cpuTime),
		gm.PMT.demand("gpu", gpuTime),
	})
	if err != nil {
		return nil, nil, nil, err
	}
	h := &HeteroAllocation{Splitter: splitter, Budget: budget, CPUBudget: shares[0], GPUBudget: shares[1]}
	if h.CPU, err = Solve(m.PMT, fw.Sys.Spec.Arch, units.Watts(float64(h.CPUBudget)*(1-m.Margin))); err != nil {
		return nil, nil, nil, err
	}
	h.CPU.Budget = h.CPUBudget
	lo, hi := gpuClass.ladder(fw.Sys)
	if h.GPU, err = solve(gm.PMT, lo, hi, units.Watts(float64(h.GPUBudget)*(1-gm.Margin))); err != nil {
		return nil, nil, nil, err
	}
	h.GPU.Budget = h.GPUBudget
	h.PredictedTime = max(cpuTime(h.CPU.Alpha), gpuTime(h.GPU.Alpha))
	return h, m.PMT, gm.PMT, nil
}

// demand is the table's class demand for the splitter: its summed floor
// and nominal powers.
func (p *PMT) demand(name string, timeAt func(alpha float64) units.Seconds) ClassDemand {
	d := ClassDemand{Class: name, TimeAt: timeAt}
	for _, e := range p.Entries {
		d.Min += e.ModuleMin()
		d.Max += e.ModuleMax()
	}
	return d
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
func (fw *Framework) RunHetero(bench *workload.Benchmark, moduleIDs, deviceIDs []int,
	budget units.Watts, scheme Scheme, splitter Splitter) (*HeteroRun, error) {
	span := fw.startSpan("hetero.run", bench, budget, scheme)
	span.SetAttr("splitter", splitter.String())
	defer span.End()
	in := fw.under(span)
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
// application. The CPU class goes through Execute (RAPL caps or pinned
// P-states); the GPU class programs each device's controller — PC schemes
// write per-device board power limits, FS schemes lock the common
// α-derived application clock — then resolves the steady-state operating
// points, whose slowest delivered clock sets the class's completion time.
func (fw *Framework) ExecuteHetero(bench *workload.Benchmark, moduleIDs, deviceIDs []int,
	alloc *HeteroAllocation, scheme Scheme) (*HeteroRun, error) {
	if len(alloc.GPU.Entries) != len(deviceIDs) {
		return nil, fmt.Errorf("core: GPU allocation covers %d devices, job has %d", len(alloc.GPU.Entries), len(deviceIDs))
	}
	garch := fw.Sys.Spec.GPU.Arch
	k := KernelFor(bench, fw.Sys.Spec.Arch, garch)
	ops := make([]gpuResolved, len(deviceIDs))
	for i, id := range deviceIDs {
		ctl := fw.Sys.GPUCtl(id)
		if scheme.UsesFS() {
			if _, err := ctl.LockClocks(alloc.GPU.Freq); err != nil {
				return nil, err
			}
		} else {
			w := alloc.GPU.Entries[i].Pmodule
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
	res, err := fw.Execute(bench, moduleIDs, alloc.CPU, scheme)
	if err != nil {
		return nil, err
	}
	g := GPUFraction(bench, fw.Sys.Spec.Arch)
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
	tnom := units.Seconds(float64(bench.SequentialTime(fw.Sys.Spec.Arch, fw.Sys.Spec.Arch.FNom, 1)) * float64(bench.Iterations))
	gpuElapsed := units.Seconds(float64(tnom) * g / (1 - sg + sg*rmin))
	cpuElapsed := units.Seconds(float64(res.Elapsed) * (1 - g))
	run := &HeteroRun{
		Scheme: scheme, Splitter: alloc.Splitter, Bench: bench.Name, Budget: alloc.Budget,
		Alloc: alloc, CPU: res,
		GPUPower: gpuPower, MinClock: minClock,
		Elapsed:  max(cpuElapsed, gpuElapsed),
		AvgPower: res.AvgTotalPower + gpuPower,
	}
	run.Energy = units.Energy(run.AvgPower, run.Elapsed)
	fw.recordGPU(bench, scheme, deviceIDs, alloc, ops, gpuElapsed)
	return run, nil
}

// gpuResolved pairs a device's resolved operating point with the limit the
// run programmed on it (0 under FS enforcement).
type gpuResolved struct {
	op    gpu.OperatingPoint
	limit units.Watts
}

// recordGPU commits the GPU class's side of the run to the flight recorder:
// one capture whose lanes sit above the CPU modules (at GPUFaultOffset),
// with the control-plane events and a synthesized counter track per device.
func (fw *Framework) recordGPU(bench *workload.Benchmark, scheme Scheme, deviceIDs []int,
	alloc *HeteroAllocation, ops []gpuResolved, elapsed units.Seconds) {
	if fw.Recorder == nil {
		return
	}
	garch := fw.Sys.Spec.GPU.Arch
	cap := fw.Recorder.NewCapture(fmt.Sprintf("%s/%v/gpu", bench.Name, scheme))
	offset := fw.Sys.GPUFaultOffset()
	for i, id := range deviceIDs {
		lane := offset + id
		if scheme.UsesFS() {
			cap.Event(lane, flight.EventGPUClockLock, float64(alloc.GPU.Freq))
		} else {
			cap.Event(lane, flight.EventGPULimitSet, float64(ops[i].limit))
		}
		if ops[i].op.Throttled {
			cap.Event(lane, flight.EventGPUThrottle, float64(ops[i].op.Clock))
		}
		cap.SynthesizeGPU(lane, ops[i].op.Power, ops[i].limit, ops[i].op.Clock, garch.TDP, elapsed)
	}
	cap.Seal(elapsed)
	fw.Recorder.Commit(cap)
}
