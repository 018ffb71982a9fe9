package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWattsString(t *testing.T) {
	cases := []struct {
		in   Watts
		want string
	}{
		{0, "0 W"},
		{115, "115 W"},
		{96e3, "96 kW"},
		{1.5e6, "1.5 MW"},
		{0.25, "250 mW"},
		{-2e3, "-2 kW"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Watts(%v).String() = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

func TestHertzString(t *testing.T) {
	cases := []struct {
		in   Hertz
		want string
	}{
		{GHz(2.7), "2.7 GHz"},
		{MHz(100), "100 MHz"},
		{1500, "1.5 kHz"},
		{12, "12 Hz"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Hertz.String() = %q, want %q", got, c.want)
		}
	}
}

func TestParseWatts(t *testing.T) {
	cases := []struct {
		in   string
		want Watts
	}{
		{"115", 115},
		{"115W", 115},
		{"115 W", 115},
		{"96kW", 96e3},
		{"96 kw", 96e3},
		{"1.5 MW", 1.5e6},
		{"250mW", 0.25},
	}
	for _, c := range cases {
		got, err := ParseWatts(c.in)
		if err != nil {
			t.Fatalf("ParseWatts(%q): %v", c.in, err)
		}
		if math.Abs(float64(got-c.want)) > 1e-9 {
			t.Errorf("ParseWatts(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "watts", "12 XW", "kW"} {
		if _, err := ParseWatts(bad); err == nil {
			t.Errorf("ParseWatts(%q) succeeded, want error", bad)
		}
	}
}

func TestParseWattsRoundTrip(t *testing.T) {
	f := func(v float64) bool {
		w := Watts(math.Abs(math.Mod(v, 1e7)))
		got, err := ParseWatts(w.String())
		if err != nil {
			return false
		}
		if float64(w) == 0 {
			return got == 0
		}
		return math.Abs(float64(got-w))/math.Abs(float64(w)) < 1e-3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEnergyAndAvgPower(t *testing.T) {
	j := Energy(100, 30)
	if j != 3000 {
		t.Fatalf("Energy(100W, 30s) = %v, want 3000 J", j)
	}
	if p := AvgPower(j, 30); p != 100 {
		t.Fatalf("AvgPower round-trip = %v, want 100 W", p)
	}
	if p := AvgPower(j, 0); p != 0 {
		t.Fatalf("AvgPower over zero time = %v, want 0", p)
	}
}

func TestClampLerpInvLerp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("Clamp misbehaves")
	}
	if Lerp(10, 20, 0.5) != 15 {
		t.Fatal("Lerp midpoint wrong")
	}
	if InvLerp(10, 20, 15) != 0.5 {
		t.Fatal("InvLerp midpoint wrong")
	}
	if InvLerp(7, 7, 7) != 0 {
		t.Fatal("InvLerp degenerate range should be 0")
	}
	// Lerp and InvLerp invert each other on non-degenerate ranges.
	f := func(a, b, tt float64) bool {
		if !isFinite(a) || !isFinite(b) || !isFinite(tt) || a == b {
			return true
		}
		tt = math.Mod(math.Abs(tt), 1)
		v := Lerp(a, b, tt)
		back := InvLerp(a, b, v)
		return math.Abs(back-tt) < 1e-6 || math.Abs(v) > 1e12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e15 }

func TestSecondsAndJoulesString(t *testing.T) {
	if got := Seconds(1.5).String(); got != "1.500 s" {
		t.Errorf("Seconds.String() = %q", got)
	}
	if got := Joules(2500).String(); got != "2.5 kJ" {
		t.Errorf("Joules.String() = %q", got)
	}
	if got := Joules(3.2e6).String(); got != "3.2 MJ" {
		t.Errorf("Joules.String() = %q", got)
	}
}

func TestKWAndGHzAccessors(t *testing.T) {
	if Watts(96e3).KW() != 96 {
		t.Error("KW accessor wrong")
	}
	if GHz(2.7).GHz() != 2.7 {
		t.Error("GHz accessor wrong")
	}
	if MHz(2700).GHz() != 2.7 {
		t.Error("MHz constructor wrong")
	}
}
