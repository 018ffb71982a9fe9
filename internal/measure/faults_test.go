package measure

import (
	"reflect"
	"testing"

	"varpower/internal/cluster"
	"varpower/internal/faults"
	"varpower/internal/parallel"
	"varpower/internal/units"
	"varpower/internal/workload"
)

// faultySystem builds a test system with the plan installed.
func faultySystem(t *testing.T, n int, plan *faults.Plan) (*cluster.System, []int) {
	t.Helper()
	sys, ids := testSystem(t, n)
	in, err := faults.NewInjector(plan)
	if err != nil {
		t.Fatal(err)
	}
	sys.InstallFaults(in)
	return sys, ids
}

func cappedConfig(ids []int) Config {
	caps := make([]units.Watts, len(ids))
	for i := range caps {
		caps[i] = 70
	}
	return Config{Bench: workload.MHD(), Modules: ids, Mode: ModeCapped, CPUCaps: caps}
}

// TestEmptyPlanIsByteIdentical pins the zero-fault contract: a system with
// an empty fault plan (nil injector) must produce results deeply equal to a
// system that never heard of faults — including the absence of Health.
func TestEmptyPlanIsByteIdentical(t *testing.T) {
	sysA, ids := testSystem(t, 12)
	sysB, _ := faultySystem(t, 12, &faults.Plan{})
	a, err := Run(sysA, cappedConfig(ids))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sysB, cappedConfig(ids))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("empty fault plan changed the result")
	}
	if a.Health != nil {
		t.Fatal("healthy run grew a Health report")
	}
	if a.Degraded() {
		t.Fatal("healthy run reports degradation")
	}
}

func TestModuleDeathYieldsPartialResult(t *testing.T) {
	const n = 12
	// Module IDs are 0..n-1 under AllocateFirst; kill two mid-run.
	plan := &faults.Plan{Name: "two-deaths", Events: []faults.Event{
		{Module: 3, Kind: faults.KindModuleDeath, Start: 5},
		{Module: 8, Kind: faults.KindModuleDeath, Start: 9},
	}}
	sys, ids := faultySystem(t, n, plan)
	res, err := Run(sys, cappedConfig(ids))
	if err != nil {
		t.Fatalf("run with deaths failed instead of degrading: %v", err)
	}
	if len(res.Health) != n {
		t.Fatalf("health covers %d of %d ranks", len(res.Health), n)
	}
	if got := res.DeadRanks(); !reflect.DeepEqual(got, []int{3, 8}) {
		t.Fatalf("dead ranks %v, want [3 8]", got)
	}
	if !res.Degraded() {
		t.Fatal("death not reported as degradation")
	}
	for _, h := range res.Health {
		want := VerdictOK
		if h.Rank == 3 || h.Rank == 8 {
			want = VerdictDead
		}
		if h.Verdict != want {
			t.Fatalf("rank %d verdict %q, want %q", h.Rank, h.Verdict, want)
		}
	}
	// Dead ranks still carry partial measurements: they ran until death.
	for _, rank := range []int{3, 8} {
		r := res.Ranks[rank]
		if r.Busy <= 0 || r.PkgEnergy <= 0 {
			t.Fatalf("dead rank %d has no partial stats: %+v", rank, r)
		}
	}
	if res.Elapsed <= 0 {
		t.Fatal("survivors did not finish")
	}
}

func TestSensorFaultsRetryAndQuarantine(t *testing.T) {
	const n = 8
	plan := &faults.Plan{Name: "bad-sensors", Events: []faults.Event{
		{Module: 1, Kind: faults.KindDropMSR, Start: 0},                  // permanent: every poll fails
		{Module: 5, Kind: faults.KindSpikeMSR, Start: 0, Magnitude: 100}, // implausible deltas
	}}
	sys, ids := faultySystem(t, n, plan)
	retried := faults.MetricRetried.Value()
	quarantined := faults.MetricQuarantined.Value()
	res, err := Run(sys, cappedConfig(ids))
	if err != nil {
		t.Fatalf("run with sensor faults failed instead of degrading: %v", err)
	}
	if res.Ranks[1].DroppedPolls == 0 {
		t.Fatal("permanently dropped reads produced no dropped polls")
	}
	if res.Ranks[1].Retries == 0 {
		t.Fatal("dropped reads were never retried")
	}
	if faults.MetricRetried.Value() <= retried {
		t.Fatal("retry telemetry did not advance")
	}
	if res.Ranks[5].DroppedPolls == 0 {
		t.Fatal("spiked deltas were not rejected as implausible")
	}
	if faults.MetricQuarantined.Value() <= quarantined {
		t.Fatal("quarantine telemetry did not advance")
	}
	for _, rank := range []int{1, 5} {
		if res.Health[rank].Verdict != VerdictSensorFault {
			t.Fatalf("rank %d verdict %q, want %q", rank, res.Health[rank].Verdict, VerdictSensorFault)
		}
	}
	// Healthy neighbours are untouched.
	if res.Ranks[0].DroppedPolls != 0 || res.Ranks[0].Retries != 0 {
		t.Fatalf("healthy rank accumulated fault stats: %+v", res.Ranks[0])
	}
	if res.Health[0].Verdict != VerdictOK {
		t.Fatalf("healthy rank verdict %q", res.Health[0].Verdict)
	}
}

func TestControlFaultVerdicts(t *testing.T) {
	const n = 8
	plan := &faults.Plan{Events: []faults.Event{
		{Module: 0, Kind: faults.KindCapDrift, Magnitude: 1.2},
		{Module: 2, Kind: faults.KindThermalThrottle, Magnitude: 0.25},
		{Module: 4, Kind: faults.KindSlowNode, Magnitude: 1.4},
	}}
	sys, ids := faultySystem(t, n, plan)
	res, err := Run(sys, cappedConfig(ids))
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]Verdict{0: VerdictCapDrift, 2: VerdictThrottled, 4: VerdictSlow}
	for rank, h := range res.Health {
		expect := VerdictOK
		if v, ok := want[rank]; ok {
			expect = v
		}
		if h.Verdict != expect {
			t.Fatalf("rank %d verdict %q, want %q", rank, h.Verdict, expect)
		}
	}
	// The slow node really is slower: it holds everyone up, so its wait is
	// minimal while healthy ranks wait on it.
	if res.Ranks[4].Busy <= res.Ranks[3].Busy {
		t.Fatalf("slow node busy %v not above healthy %v", res.Ranks[4].Busy, res.Ranks[3].Busy)
	}
}

// TestFaultyRunDeterministicAcrossWorkers: the same plan and seed give
// deeply equal results whether the run is made alone or by sweep workers
// of every width running it on clones of one faulty system at once — the
// clones share the plan, and faults do not break the engine's determinism
// contract.
func TestFaultyRunDeterministicAcrossWorkers(t *testing.T) {
	plan := &faults.Plan{Events: []faults.Event{
		{Module: 2, Kind: faults.KindModuleDeath, Start: 6},
		{Module: 5, Kind: faults.KindDropMSR, Start: 0, Duration: 20},
		{Module: 7, Kind: faults.KindSlowNode, Magnitude: 1.3},
	}}
	sys, ids := faultySystem(t, 10, plan)
	cfg := cappedConfig(ids)
	ref, err := Run(sys.Clone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 0} {
		got, err := parallel.Map(workers, 4, func(int) (Result, error) {
			return Run(sys.Clone(), cfg)
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, res := range got {
			if !reflect.DeepEqual(ref, res) {
				t.Fatalf("workers=%d: run %d diverged from the run made alone under faults", workers, i)
			}
		}
	}
}
