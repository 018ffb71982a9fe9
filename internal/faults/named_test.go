package faults

import (
	"reflect"
	"testing"
)

// TestLadderSpecsValidateAndGenerate checks every rung is a legal RateSpec
// and generates a valid plan; "none" must be empty so it is equivalent to
// not injecting faults at all.
func TestLadderSpecsValidateAndGenerate(t *testing.T) {
	for _, l := range Ladder() {
		if err := l.Spec.Validate(); err != nil {
			t.Fatalf("rung %s: %v", l.Name, err)
		}
		p, err := Generate(0x5c15, l.Spec, 64)
		if err != nil {
			t.Fatalf("rung %s: %v", l.Name, err)
		}
		if l.Name == "none" && !p.Empty() {
			t.Fatalf("none rung generated %d events", len(p.Events))
		}
		if l.Name == "high" && p.Empty() {
			t.Fatal("high rung generated no events over 64 modules")
		}
	}
}

// TestLevelByName resolves case-insensitively and rejects unknown names.
func TestLevelByName(t *testing.T) {
	l, err := LevelByName("Medium")
	if err != nil {
		t.Fatal(err)
	}
	if l.Name != "medium" || l.Spec.Horizon != 10 {
		t.Fatalf("got %+v", l)
	}
	want := Ladder()[2].Spec
	if !reflect.DeepEqual(l.Spec, want) {
		t.Fatalf("spec mismatch: %+v != %+v", l.Spec, want)
	}
	if _, err := LevelByName("catastrophic"); err == nil {
		t.Fatal("unknown level must error")
	}
}
