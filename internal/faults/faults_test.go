package faults

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"varpower/internal/units"
)

func TestValidateRejectsBadPlans(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
	}{
		{"unknown kind", Plan{Events: []Event{{Kind: "melted"}}}},
		{"negative module", Plan{Events: []Event{{Module: -1, Kind: KindStuckMSR}}}},
		{"negative start", Plan{Events: []Event{{Kind: KindStuckMSR, Start: -1}}}},
		{"NaN start", Plan{Events: []Event{{Kind: KindStuckMSR, Start: math.NaN()}}}},
		{"inf duration", Plan{Events: []Event{{Kind: KindStuckMSR, Duration: math.Inf(1)}}}},
		{"negative magnitude", Plan{Events: []Event{{Kind: KindSpikeMSR, Magnitude: -2}}}},
		{"throttle >= 1", Plan{Events: []Event{{Kind: KindThermalThrottle, Magnitude: 1.5}}}},
		{"tiny drift", Plan{Events: []Event{{Kind: KindCapDrift, Magnitude: 0.01}}}},
		{"overlap same kind", Plan{Events: []Event{
			{Module: 3, Kind: KindStuckMSR, Start: 1, Duration: 10},
			{Module: 3, Kind: KindStuckMSR, Start: 5, Duration: 2},
		}}},
		{"overlap with permanent", Plan{Events: []Event{
			{Module: 3, Kind: KindDropMSR, Start: 1}, // Duration 0 = forever
			{Module: 3, Kind: KindDropMSR, Start: 99, Duration: 1},
		}}},
	}
	for _, c := range cases {
		if err := c.plan.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	ok := Plan{Events: []Event{
		{Module: 3, Kind: KindStuckMSR, Start: 1, Duration: 4},
		{Module: 3, Kind: KindStuckMSR, Start: 5, Duration: 2}, // adjacent, not overlapping
		{Module: 3, Kind: KindDropMSR, Start: 2, Duration: 2},  // other kind may overlap
		{Module: 4, Kind: KindModuleDeath, Start: 10},
	}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	if err := (*Plan)(nil).Validate(); err != nil {
		t.Fatalf("nil plan rejected: %v", err)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	p := &Plan{Name: "rt", Events: []Event{
		{Module: 0, Kind: KindSpikeMSR, Start: 1, Duration: 2, Magnitude: 50},
		{Module: 7, Kind: KindModuleDeath, Start: 3.5},
		{Module: 2, Kind: KindCapDrift, Magnitude: 1.2},
	}}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	again, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, again) {
		t.Fatalf("round trip changed plan:\n%+v\n%+v", p, again)
	}
}

func TestGenerateDeterministicAndScaled(t *testing.T) {
	spec := RateSpec{StuckMSR: 0.2, ModuleDeath: 0.1, SlowNode: 0.3, Horizon: 60}
	a, err := Generate(42, spec, 200)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(42, spec, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (seed, spec, modules) generated different plans")
	}
	c, _ := Generate(43, spec, 200)
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Fatal("different seeds generated identical plans")
	}
	// A module's events must not depend on the total module count: the
	// per-(module, kind) keyed streams make prefixes stable.
	small, _ := Generate(42, spec, 50)
	for _, e := range small.Events {
		found := false
		for _, ea := range a.Events {
			if reflect.DeepEqual(e, ea) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("event %+v present at 50 modules but not at 200", e)
		}
	}
	// Rates roughly hold: 0.1 deaths over 200 modules ⇒ a handful, not 0 or 200.
	deaths := 0
	for _, e := range a.Events {
		if e.Kind == KindModuleDeath {
			deaths++
		}
	}
	if deaths == 0 || deaths > 60 {
		t.Fatalf("death rate 0.1 over 200 modules produced %d deaths", deaths)
	}
	if _, err := Generate(1, RateSpec{StuckMSR: 2}, 10); err == nil {
		t.Fatal("rate > 1 accepted")
	}
}

func TestNilAndEmptyPlanYieldNilInjector(t *testing.T) {
	for _, p := range []*Plan{nil, {}, {Name: "empty"}} {
		in, err := NewInjector(p)
		if err != nil {
			t.Fatal(err)
		}
		if in != nil {
			t.Fatalf("plan %+v did not yield the nil sentinel", p)
		}
	}
	// All queries must be safe on the nil injector.
	var in *Injector
	if v, err := in.EnergyRead(0, 1, 7, 5, true); v != 7 || err != nil {
		t.Fatalf("nil injector perturbed a read: %v %v", v, err)
	}
	if c := in.EffectiveCap(0, 80); c != 80 {
		t.Fatalf("nil injector drifted a cap: %v", c)
	}
	if f := in.SlowFactor(0); f != 1 {
		t.Fatalf("nil injector slowed a module: %v", f)
	}
	if _, ok := in.DeathTime(0); ok {
		t.Fatal("nil injector killed a module")
	}
	if in.Has(0, KindStuckMSR) {
		t.Fatal("nil injector reports faults")
	}
}

func TestInjectorSensorSemantics(t *testing.T) {
	in := MustInjector(&Plan{Events: []Event{
		{Module: 1, Kind: KindStuckMSR, Start: 10, Duration: 5},
		{Module: 2, Kind: KindSpikeMSR, Start: 0, Magnitude: 100},
		{Module: 3, Kind: KindDropMSR, Start: 2, Duration: 1},
	}})

	// Outside the window: raw passes through.
	if v, err := in.EnergyRead(1, 9.9, 1000, 900, true); v != 1000 || err != nil {
		t.Fatalf("pre-window read perturbed: %v %v", v, err)
	}
	// Inside: stuck returns the last returned value.
	if v, _ := in.EnergyRead(1, 12, 1000, 900, true); v != 900 {
		t.Fatalf("stuck read returned %v, want last=900", v)
	}
	// First-ever read during a stuck window has nothing to repeat.
	if v, _ := in.EnergyRead(1, 12, 1000, 0, false); v != 1000 {
		t.Fatalf("stuck first read returned %v, want raw", v)
	}
	// Window end is exclusive.
	if v, _ := in.EnergyRead(1, 15, 1000, 900, true); v != 1000 {
		t.Fatalf("post-window read perturbed: %v", v)
	}
	// Spike multiplies and masks to the 32-bit register width.
	if v, _ := in.EnergyRead(2, 1, 7, 0, false); v != 700 {
		t.Fatalf("spike returned %v, want 700", v)
	}
	if v, _ := in.EnergyRead(2, 1, 0x4000_0000, 0, false); v > 0xFFFF_FFFF {
		t.Fatalf("spike escaped the 32-bit register: %#x", v)
	}
	// Drop fails the read with the sentinel error.
	if _, err := in.EnergyRead(3, 2.5, 1000, 0, false); err != ErrDropped {
		t.Fatalf("drop returned %v, want ErrDropped", err)
	}
	// Unfaulted module untouched.
	if v, err := in.EnergyRead(9, 2.5, 1000, 0, false); v != 1000 || err != nil {
		t.Fatalf("unfaulted module perturbed: %v %v", v, err)
	}
}

func TestInjectorControlSemantics(t *testing.T) {
	in := MustInjector(&Plan{Events: []Event{
		{Module: 0, Kind: KindCapDrift, Magnitude: 1.25},
		{Module: 1, Kind: KindCapLag, Magnitude: 4},
		{Module: 2, Kind: KindThermalThrottle}, // default magnitude
		{Module: 3, Kind: KindSlowNode, Magnitude: 1.5},
		{Module: 4, Kind: KindModuleDeath, Start: 6},
	}})
	if c := in.EffectiveCap(0, units.Watts(80)); math.Abs(float64(c)-100) > 1e-9 {
		t.Fatalf("drifted cap %v, want 100", c)
	}
	if c := in.EffectiveCap(1, units.Watts(80)); c != 80 {
		t.Fatalf("undrifted module's cap moved: %v", c)
	}
	if lag, ok := in.CapLag(1); !ok || lag != 4 {
		t.Fatalf("cap lag %v %v", lag, ok)
	}
	if frac, ok := in.SpuriousThrottle(2); !ok || frac != 0.2 {
		t.Fatalf("throttle %v %v, want default 0.2", frac, ok)
	}
	if f := in.SlowFactor(3); f != 1.5 {
		t.Fatalf("slow factor %v", f)
	}
	if f := in.SlowFactor(0); f != 1 {
		t.Fatalf("healthy module slowed: %v", f)
	}
	if at, ok := in.DeathTime(4); !ok || at != 6 {
		t.Fatalf("death time %v %v", at, ok)
	}
	if !in.Has(4, KindModuleDeath) || in.Has(4, KindSlowNode) {
		t.Fatal("Has misreports the schedule")
	}
}

func TestOutliers(t *testing.T) {
	// A ×100 spike against a tight population is flagged at the default k.
	xs := []float64{60, 61, 59, 60.5, 6000, 59.5}
	got := Outliers(xs, 0)
	if !reflect.DeepEqual(got, []int{4}) {
		t.Fatalf("outliers %v, want [4]", got)
	}
	// Identical values never self-flag (degenerate MAD).
	if got := Outliers([]float64{5, 5, 5, 5}, 0); got != nil {
		t.Fatalf("identical values flagged: %v", got)
	}
	// Manufacturing-scale spread survives.
	if got := Outliers([]float64{55, 60, 65, 58, 62}, 0); got != nil {
		t.Fatalf("normal spread flagged: %v", got)
	}
	// Too few elements: no basis for rejection.
	if got := Outliers([]float64{1, 1e9}, 0); got != nil {
		t.Fatalf("two elements flagged: %v", got)
	}
}
