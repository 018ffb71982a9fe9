package workload

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"varpower/internal/cluster"
	"varpower/internal/simmpi"
)

func TestRegistryValidates(t *testing.T) {
	for _, b := range All() {
		if err := b.Validate(); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
	}
	if len(All()) != 7 {
		t.Errorf("expected 7 benchmarks, have %d", len(All()))
	}
	if len(Evaluated()) != 6 {
		t.Errorf("expected 6 evaluated benchmarks, have %d", len(Evaluated()))
	}
}

func TestByName(t *testing.T) {
	cases := map[string]string{
		"*DGEMM": "*DGEMM", "dgemm": "*DGEMM", "DGEMM": "*DGEMM",
		"stream": "*STREAM", "npbbt": "NPB-BT", "bt": "NPB-BT", // bare NPB names are accepted aliases
		"mvmc": "mVMC", "mhd": "MHD", "ep": "NPB-EP", "npbep": "NPB-EP",
		"nosuch": "",
	}
	for in, want := range cases {
		b, err := ByName(in)
		if want == "" {
			if err == nil {
				t.Errorf("ByName(%q) unexpectedly found %s", in, b.Name)
			}
			continue
		}
		if err != nil {
			t.Errorf("ByName(%q): %v", in, err)
			continue
		}
		if b.Name != want {
			t.Errorf("ByName(%q) = %s, want %s", in, b.Name, want)
		}
	}
}

// byNameReference is ByName as a plain scan: build every benchmark, fold
// each candidate's name, and match the exact name, the folded name or the
// bare NPB alias.
func byNameReference(name string) (*Benchmark, error) {
	want := foldName(name)
	for _, b := range All() {
		if b.Name == name || foldName(b.Name) == want || foldName(b.Name) == "npb"+want {
			return b, nil
		}
	}
	var names []string
	for _, b := range All() {
		names = append(names, b.Name)
	}
	sort.Strings(names)
	return nil, fmt.Errorf("workload: unknown benchmark %q (have %v)", name, names)
}

// TestByNameMatchesReference: for every benchmark's exact name, its folded
// name, its bare NPB alias and case and punctuation variants, and for
// unknown names, ByName returns what the plain scan returns — an equal
// benchmark or the same error text — and a fresh benchmark per call.
func TestByNameMatchesReference(t *testing.T) {
	queries := []string{"", "nosuch", "npb", "NPB-", "*", "dgemm2", "npbnpbbt", "bt ", "Npb_BT"}
	for _, b := range All() {
		f := foldName(b.Name)
		queries = append(queries, b.Name, f, strings.ToUpper(b.Name), strings.ToUpper(f), "-"+b.Name+"*")
		if strings.HasPrefix(f, "npb") {
			queries = append(queries, f[len("npb"):], strings.ToUpper(f[len("npb"):]))
		}
	}
	for _, q := range queries {
		got, err := ByName(q)
		want, werr := byNameReference(q)
		if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
			t.Fatalf("ByName(%q): error %v, reference %v", q, err, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ByName(%q) = %+v, reference %+v", q, got, want)
		}
		if got != nil {
			if again, _ := ByName(q); again == got {
				t.Fatalf("ByName(%q) returned the same benchmark twice", q)
			}
		}
	}
	for i, b := range All() {
		if registry[i].name != b.Name || registry[i].folded != foldName(b.Name) {
			t.Errorf("registry entry %d names %q (folded %q), its benchmark %q", i, registry[i].name, registry[i].folded, b.Name)
		}
	}
}

func TestValidateRejectsBadBenchmarks(t *testing.T) {
	good := DGEMM()
	bad := []func(*Benchmark){
		func(b *Benchmark) { b.Name = "" },
		func(b *Benchmark) { b.Iterations = 0 },
		func(b *Benchmark) { b.CyclesPerIter = -1 },
		func(b *Benchmark) { b.CyclesPerIter, b.BytesPerIter = 0, 0 },
		func(b *Benchmark) { b.ImbalanceSigma = 0.9 },
		func(b *Benchmark) { b.Profile.Workload = "other" },
	}
	for i, mutate := range bad {
		b := *good
		mutate(&b)
		if err := b.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestProfileForScalesWithTDP(t *testing.T) {
	b := DGEMM()
	ha := cluster.HA8K().Arch
	cab := cluster.Cab().Arch
	pHA := b.ProfileFor(ha)
	pCab := b.ProfileFor(cab)
	wantRatio := float64(cab.TDP) / float64(ha.TDP)
	gotRatio := float64(pCab.DynPower) / float64(pHA.DynPower)
	if math.Abs(gotRatio-wantRatio) > 1e-9 {
		t.Fatalf("CPU scaling %v, want %v", gotRatio, wantRatio)
	}
	if pHA.DynPower != b.Profile.DynPower {
		t.Fatal("reference arch should be unscaled")
	}
}

func TestFrequencySensitivityOrdering(t *testing.T) {
	arch := cluster.HA8K().Arch
	d := DGEMM().FrequencySensitivity(arch)
	s := StarSTREAM().FrequencySensitivity(arch)
	e := EP().FrequencySensitivity(arch)
	if !(e >= d && d > s) {
		t.Fatalf("sensitivity ordering wrong: EP=%v DGEMM=%v STREAM=%v", e, d, s)
	}
	if d < 0.9 {
		t.Errorf("DGEMM sensitivity %v, want ≥ 0.9 (compute-bound)", d)
	}
	if s > 0.5 {
		t.Errorf("STREAM sensitivity %v, want ≤ 0.5 (memory-bound)", s)
	}
}

func TestSequentialTimeDecreasing(t *testing.T) {
	arch := cluster.HA8K().Arch
	for _, b := range All() {
		lo := b.SequentialTime(arch, arch.FMin, 1)
		hi := b.SequentialTime(arch, arch.FNom, 1)
		if hi >= lo {
			t.Errorf("%s: time at fnom (%v) not below time at fmin (%v)", b.Name, hi, lo)
		}
	}
	if tm := DGEMM().SequentialTime(arch, 0, 1); tm < 1e17 {
		t.Error("zero frequency should yield effectively infinite time")
	}
}

func TestImbalance(t *testing.T) {
	b := BT()
	if b.Imbalance(1, 3) != b.Imbalance(1, 3) {
		t.Fatal("imbalance not deterministic")
	}
	if MHD().Imbalance(1, 3) != 1 {
		t.Fatal("balanced benchmark has imbalance")
	}
	var sum float64
	const n = 2000
	for r := 0; r < n; r++ {
		v := b.Imbalance(1, r)
		if v <= 0 {
			t.Fatalf("non-positive imbalance %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1) > 0.01 {
		t.Fatalf("imbalance mean %v, want ≈ 1", mean)
	}
}

func TestProgramShapes(t *testing.T) {
	for _, b := range All() {
		p, err := b.Program(8, 1)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		rounds := p.Rounds()
		switch b.Comm {
		case CommNone:
			if rounds != b.Iterations {
				t.Errorf("%s rounds=%d, want %d", b.Name, rounds, b.Iterations)
			}
		case CommHalo3D, CommAllreduce:
			if rounds != 2*b.Iterations {
				t.Errorf("%s rounds=%d, want %d", b.Name, rounds, 2*b.Iterations)
			}
		case CommFinalReduce:
			if rounds != b.Iterations+1 {
				t.Errorf("%s rounds=%d, want %d", b.Name, rounds, b.Iterations+1)
			}
		}
		// Every round must play a table, and every table must be
		// SPMD-consistent across ranks.
		tables := p.Tables()
		for r := 0; r < rounds; r++ {
			if i := p.Round(r); i < 0 || i >= len(tables) {
				t.Fatalf("%s: round %d plays table %d of %d", b.Name, r, i, len(tables))
			}
		}
		for i, tab := range tables {
			if len(tab) != 8 {
				t.Fatalf("%s: table %d has %d ops for 8 ranks", b.Name, i, len(tab))
			}
			for rank := 1; rank < 8; rank++ {
				if kindOf(tab[rank]) != kindOf(tab[0]) {
					t.Fatalf("%s: op kind mismatch in table %d rank %d", b.Name, i, rank)
				}
			}
		}
	}
}

func kindOf(op simmpi.Op) string {
	switch op.(type) {
	case simmpi.Compute:
		return "compute"
	case simmpi.Sendrecv:
		return "sendrecv"
	case simmpi.Barrier:
		return "barrier"
	case simmpi.Allreduce:
		return "allreduce"
	}
	return "?"
}

func TestFactor3(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 8, 17, 64, 100, 1920, 1000} {
		d := factor3(n)
		if d[0]*d[1]*d[2] != n {
			t.Fatalf("factor3(%d) = %v, product wrong", n, d)
		}
		if d[0] > d[1] || d[1] > d[2] {
			t.Fatalf("factor3(%d) = %v not sorted", n, d)
		}
	}
	if d := factor3(64); d != [3]int{4, 4, 4} {
		t.Fatalf("factor3(64) = %v, want cubic", d)
	}
	if d := factor3(1920); d != [3]int{10, 12, 16} {
		t.Fatalf("factor3(1920) = %v, want {10,12,16}", d)
	}
}

func TestTorusNeighborsSymmetric(t *testing.T) {
	f := func(sz uint8) bool {
		size := int(sz)%200 + 2
		topo := NewTorus3D(size)
		for r := 0; r < size; r++ {
			for _, p := range topo.Neighbors(r) {
				if p == r || p < 0 || p >= size {
					return false
				}
				// Symmetry: if p is a neighbour of r, r is one of p.
				found := false
				for _, q := range topo.Neighbors(p) {
					if q == r {
						found = true
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTorusNeighborCount(t *testing.T) {
	topo := NewTorus3D(64) // 4×4×4
	for r := 0; r < 64; r++ {
		if n := len(topo.Neighbors(r)); n != 6 {
			t.Fatalf("rank %d has %d neighbours on a 4×4×4 torus, want 6", r, n)
		}
	}
	// Degenerate dimensions collapse duplicate neighbours.
	small := NewTorus3D(2)
	if n := len(small.Neighbors(0)); n != 1 {
		t.Fatalf("2-rank torus neighbour count %d, want 1", n)
	}
}

func TestCommPatternString(t *testing.T) {
	if CommHalo3D.String() != "halo-3d" || CommNone.String() != "none" {
		t.Error("pattern names wrong")
	}
	if CommPattern(99).String() == "" {
		t.Error("unknown pattern should still format")
	}
}
