package core

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"varpower/internal/cluster"
	"varpower/internal/stats"
	"varpower/internal/workload"
)

func pvtSystem(t *testing.T, n int) *cluster.System {
	t.Helper()
	return cluster.MustNew(cluster.HA8K(), n, 0x5c15)
}

func TestGeneratePVTShape(t *testing.T) {
	sys := pvtSystem(t, 64)
	pvt, err := GeneratePVTWorkers(sys, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pvt.System != "HA8K" || pvt.Microbenchmark != "*STREAM" {
		t.Fatalf("PVT header %q / %q", pvt.System, pvt.Microbenchmark)
	}
	if len(pvt.Entries) != 64 {
		t.Fatalf("entries %d", len(pvt.Entries))
	}
	// Scales are normalised: each column averages to 1.
	var cm, dm, cn, dn []float64
	for _, e := range pvt.Entries {
		cm = append(cm, e.CPUMax)
		dm = append(dm, e.DramMax)
		cn = append(cn, e.CPUMin)
		dn = append(dn, e.DramMin)
	}
	for name, xs := range map[string][]float64{"cpuMax": cm, "dramMax": dm, "cpuMin": cn, "dramMin": dn} {
		if m := stats.Mean(xs); math.Abs(m-1) > 1e-9 {
			t.Errorf("%s scales mean %v, want 1", name, m)
		}
	}
	// DRAM scales spread wider than CPU scales (the paper's DRAM-variation
	// observation; *STREAM's static-heavy CPU draw makes its CPU spread
	// the widest of all workloads, so the margin here is modest).
	if stats.Variation(dm) < 1.05*stats.Variation(cm) {
		t.Errorf("DRAM scale spread %v not above CPU spread %v", stats.Variation(dm), stats.Variation(cm))
	}
}

func TestPVTEntryLookup(t *testing.T) {
	sys := pvtSystem(t, 8)
	pvt, err := GeneratePVTWorkers(sys, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	e, err := pvt.Entry(5)
	if err != nil || e.ModuleID != 5 {
		t.Fatalf("Entry(5) = %+v, %v", e, err)
	}
	if _, err := pvt.Entry(99); err == nil {
		t.Error("out-of-range entry lookup accepted")
	}
	if _, err := pvt.Entry(-1); err == nil {
		t.Error("negative entry lookup accepted")
	}
}

func TestPVTSaveLoadRoundTrip(t *testing.T) {
	sys := pvtSystem(t, 16)
	pvt, err := GeneratePVTWorkers(sys, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pvt.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadPVT(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.System != pvt.System || len(back.Entries) != len(pvt.Entries) {
		t.Fatal("round trip lost structure")
	}
	for i := range back.Entries {
		if math.Abs(back.Entries[i].CPUMax-pvt.Entries[i].CPUMax) > 1e-12 {
			t.Fatalf("entry %d changed in round trip", i)
		}
	}
}

func TestLoadPVTRejectsGarbage(t *testing.T) {
	cases := []string{
		"not json",
		`{"system":"x","entries":[]}`,
		`{"system":"x","entries":[{"module":0,"cpu_max":0,"dram_max":1,"cpu_min":1,"dram_min":1}]}`,
	}
	for i, s := range cases {
		if _, err := LoadPVT(strings.NewReader(s)); err == nil {
			t.Errorf("garbage %d accepted", i)
		}
	}
}

func TestGeneratePVTCustomMicrobenchmark(t *testing.T) {
	sys := pvtSystem(t, 8)
	pvt, err := GeneratePVTWorkers(sys, workload.DGEMM(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if pvt.Microbenchmark != "*DGEMM" {
		t.Fatalf("microbenchmark %q", pvt.Microbenchmark)
	}
}
