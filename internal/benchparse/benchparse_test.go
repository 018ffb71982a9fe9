package benchparse

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: varpower
BenchmarkTable4-8          	       1	1132997259 ns/op	  13518650 allocs/op
BenchmarkParallelSpeedup/workers-1-8 	       1	1526000000 ns/op	       2.1 vafs-avg-speedup	18840886 allocs/op
BenchmarkParallelSpeedup/workers-max-8 	       1	1665000000 ns/op	18841779 allocs/op
BenchmarkAblationCliff/exp-2-8   	       1	 100000 ns/op
PASS
ok  	varpower	10.1s
`

func TestParse(t *testing.T) {
	benches, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 4 {
		t.Fatalf("parsed %d records, want 4", len(benches))
	}
	if benches[0].Name != "BenchmarkTable4-8" || benches[0].NsOp != 1132997259 || benches[0].AllocsOp != 13518650 {
		t.Errorf("record 0 = %+v", benches[0])
	}
	// Custom metrics between ns/op and allocs/op must not confuse the pairs.
	if benches[1].AllocsOp != 18840886 {
		t.Errorf("workers-1 allocs = %d", benches[1].AllocsOp)
	}
	// No -benchmem → allocs -1.
	if benches[3].AllocsOp != -1 {
		t.Errorf("no-benchmem allocs = %d, want -1", benches[3].AllocsOp)
	}
}

// TestNormalizeKeepsMeaningfulSuffixes is the regression test for the bug
// benchparse exists to fix: a blind -\d+ strip turned "workers-1" into
// "workers" and "exp-2" into "exp", colliding distinct benchmarks in the
// committed artifact.
func TestNormalizeKeepsMeaningfulSuffixes(t *testing.T) {
	benches, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	norm := Normalize(benches, 8)
	want := []string{
		"BenchmarkTable4",
		"BenchmarkParallelSpeedup/workers-1",
		"BenchmarkParallelSpeedup/workers-max",
		"BenchmarkAblationCliff/exp-2",
	}
	for i, w := range want {
		if norm[i].Name != w {
			t.Errorf("normalized[%d] = %q, want %q", i, norm[i].Name, w)
		}
	}
	// GOMAXPROCS=1: go appends no suffix, so nothing may be stripped.
	one := []Bench{{Name: "BenchmarkParallelSpeedup/workers-1"}}
	if got := Normalize(one, 1)[0].Name; got != "BenchmarkParallelSpeedup/workers-1" {
		t.Errorf("gomaxprocs=1 stripped to %q", got)
	}
}

func TestReadAny(t *testing.T) {
	fromText, err := ReadAny([]byte(sample), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(fromText) != 4 || fromText[3].Name != "BenchmarkAblationCliff/exp-2" {
		t.Fatalf("text: %+v", fromText)
	}
	js := `[{"name":"BenchmarkTable4","ns_op":5,"allocs_op":7},{"name":"BenchmarkAblationCliff/exp-2","ns_op":1,"allocs_op":1}]`
	fromJSON, err := ReadAny([]byte("  \n"+js), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(fromJSON) != 2 || fromJSON[0].AllocsOp != 7 || fromJSON[1].Name != "BenchmarkAblationCliff/exp-2" {
		t.Fatalf("json: %+v", fromJSON)
	}
}

func TestByNameRejectsDuplicates(t *testing.T) {
	if _, err := ByName([]Bench{{Name: "a"}, {Name: "a"}}); err == nil {
		t.Fatal("duplicate names accepted")
	}
	m, err := ByName([]Bench{{Name: "a"}, {Name: "b"}})
	if err != nil || len(m) != 2 {
		t.Fatalf("m=%v err=%v", m, err)
	}
}
