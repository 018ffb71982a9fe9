package core

import (
	"context"
	"fmt"

	"varpower/internal/cluster"
	"varpower/internal/hw/gpu"
	"varpower/internal/hw/module"
	"varpower/internal/measure"
	"varpower/internal/telemetry"
	"varpower/internal/units"
	"varpower/internal/workload"
)

// This file describes the GPU device class to the module pipeline. A
// device is a one-channel member of the module tables (see class): its
// install-time PVT comes from the same sweep, its per-application PMTs
// from the same naive, calibrated or oracle measurement, its VaFs margin
// from the same hold-out, and its allocation from the same α-solve.

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

// gpuClass is the GPU device class: board power on the SM-clock ladder,
// with the spec sheet's TDP and minimum power limit as the naive model.
var gpuClass = &class{
	noun: "device", count: "devices", pvtSpan: "gpupvt.generate", oracleSpan: "gpupmt.oracle",
	ladder: func(spec cluster.Spec) (units.Hertz, units.Hertz) {
		return spec.GPU.Arch.ClockMin, spec.GPU.Arch.ClockNom
	},
	naive: func(sys *cluster.System) PMTEntry {
		garch := sys.Spec.GPU.Arch
		min := garch.MinLimit
		if min <= 0 {
			min = units.Watts(0.45 * float64(garch.TDP))
		}
		return PMTEntry{CPUMax: garch.TDP, CPUMin: min}
	},
	pairs: gpuPairs,
	table: func(fw *Framework) *PVT { return fw.GPVT },
}

// gpuPairs measures devices' test pairs with gpuTestRun. A device run
// publishes its controller's telemetry at once, so b goes unused.
func gpuPairs(sys *cluster.System, bench *workload.Benchmark, lo, hi units.Hertz) pairFunc {
	return func(id int, _ *telemetry.Batch) (TestPair, error) {
		return pairAt(id, hi, lo, func(clock units.Hertz) (measure.TestRunResult, error) {
			return gpuTestRun(sys, bench, id, clock)
		})
	}
}

// gpuTestRun reads device id's steady-state board power running bench's
// kernel with the SM clock locked at clock — the GPU test-run primitive.
// It is cheap (no MPI run: kernels are bulk-synchronous per device),
// deterministic, and routed through the controller so injected faults
// perturb it like any production reading.
func gpuTestRun(sys *cluster.System, bench *workload.Benchmark, id int, clock units.Hertz) (measure.TestRunResult, error) {
	ctl := sys.GPUCtl(id)
	if _, err := ctl.LockClocks(clock); err != nil {
		return measure.TestRunResult{}, err
	}
	defer ctl.UnlockClocks()
	op, ok := ctl.OperatingPoint(KernelFor(bench, sys.Spec.Arch, sys.Spec.GPU.Arch))
	if !ok {
		return measure.TestRunResult{}, fmt.Errorf("core: GPU test run on device %d found no operating point", id)
	}
	return measure.TestRunResult{Freq: clock, CPUPower: op.Power}, nil
}

// GenerateGPUPVT builds the device class's install-time table by
// test-running the microbenchmark's kernel on every device at the nominal
// and minimum SM clocks, then normalising by the population average: the
// sweep GeneratePVT runs for modules, quarantine rules included.
// Deterministic for every worker count.
func GenerateGPUPVT(ctx context.Context, sys *cluster.System, workers int) (*PVT, error) {
	n := sys.NumGPUs()
	if n == 0 {
		return nil, fmt.Errorf("core: %s has no GPU device class", sys.Spec.Name)
	}
	return gpuClass.generate(ctx, sys, n, nil, workers)
}
