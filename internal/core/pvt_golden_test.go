package core

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"varpower/internal/cluster"
	"varpower/internal/faults"
)

// TestPVTGolden pins both install-time tables of a 32-module HA8K-hybrid
// at full precision, quarantine lists included: the module and GPU tables
// under testdata/chaos-plan.json, the healthy GPU table, and the GPU table
// with device 5 thermally throttled. The throttled sweep must also be
// deep-equal at workers 1, 2 and GOMAXPROCS. Regenerate with
//
//	go test ./internal/core -run TestPVTGolden -update
func TestPVTGolden(t *testing.T) {
	var buf bytes.Buffer

	f, err := os.Open(filepath.Join("..", "..", "testdata", "chaos-plan.json"))
	if err != nil {
		t.Fatal(err)
	}
	chaos, err := faults.Load(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	sys := goldenHybrid(t, chaos)
	pvt, err := GeneratePVTWorkers(sys, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	writePVTGolden(&buf, "chaos modules", pvt)
	gpvt, err := GenerateGPUPVT(context.Background(), sys, 0)
	if err != nil {
		t.Fatal(err)
	}
	writeGPUPVTGolden(&buf, "chaos gpus", gpvt)

	gpvt, err = GenerateGPUPVT(context.Background(), goldenHybrid(t, nil), 0)
	if err != nil {
		t.Fatal(err)
	}
	writeGPUPVTGolden(&buf, "healthy gpus", gpvt)

	var throttled *GPUPVT
	for _, w := range workerWidths() {
		sys := goldenHybrid(t, nil)
		sys.InstallFaults(faults.MustInjector(&faults.Plan{Events: []faults.Event{
			{Module: sys.GPUFaultOffset() + 5, Kind: faults.KindThermalThrottle, Magnitude: 0.8},
		}}))
		gpvt, err := GenerateGPUPVT(context.Background(), sys, w)
		if err != nil {
			t.Fatal(err)
		}
		if throttled == nil {
			throttled = gpvt
		} else if !reflect.DeepEqual(throttled, gpvt) {
			t.Fatalf("throttled GPU PVT differs at %d workers", w)
		}
	}
	writeGPUPVTGolden(&buf, "throttled gpus", throttled)

	path := filepath.Join("testdata", "pvt.golden")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(want, buf.Bytes()) {
		t.Errorf("%s: install-time tables diverged from golden file.\n--- got ---\n%s\n--- want ---\n%s\nIf the change is intended, regenerate with -update.",
			path, buf.Bytes(), want)
	}
}

// goldenHybrid builds the 32-module HA8K-hybrid the golden tables describe,
// with plan installed when non-nil.
func goldenHybrid(t *testing.T, plan *faults.Plan) *cluster.System {
	t.Helper()
	sys := cluster.MustNew(cluster.HA8KHybrid(), 32, 0x5c15)
	if plan != nil {
		sys.InstallFaults(faults.MustInjector(plan))
	}
	return sys
}

func writePVTGolden(buf *bytes.Buffer, label string, p *PVT) {
	fmt.Fprintf(buf, "%s quarantined=%v\n", label, p.Quarantined)
	for _, e := range p.Entries {
		fmt.Fprintf(buf, "%s %d cpu_max=%s dram_max=%s cpu_min=%s dram_min=%s\n", label,
			e.ModuleID, full(e.CPUMax), full(e.DramMax), full(e.CPUMin), full(e.DramMin))
	}
}

func writeGPUPVTGolden(buf *bytes.Buffer, label string, p *GPUPVT) {
	fmt.Fprintf(buf, "%s quarantined=%v\n", label, p.Quarantined)
	for _, e := range p.Entries {
		fmt.Fprintf(buf, "%s %d power_max=%s power_min=%s\n", label,
			e.DeviceID, full(e.PowerMax), full(e.PowerMin))
	}
}
