package config

import (
	"bytes"
	"strings"
	"testing"

	"varpower/internal/cluster"
)

func TestSystemRoundTrip(t *testing.T) {
	for _, spec := range cluster.Presets() {
		var buf bytes.Buffer
		if err := SaveSystem(&buf, spec); err != nil {
			t.Fatal(err)
		}
		back, err := LoadSystem(&buf)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if back.Name != spec.Name || back.Nodes != spec.Nodes ||
			back.Measurement != spec.Measurement {
			t.Fatalf("%s: top-level fields lost", spec.Name)
		}
		if back.Arch.TDP != spec.Arch.TDP || back.Arch.FNom != spec.Arch.FNom ||
			back.Arch.CliffExponent != spec.Arch.CliffExponent {
			t.Fatalf("%s: arch fields lost", spec.Name)
		}
		if back.Arch.Variation != spec.Arch.Variation {
			t.Fatalf("%s: variation profile lost", spec.Name)
		}
		// The round-tripped system must instantiate identically.
		a := cluster.MustNew(spec, 4, 9).Module(2).Factors()
		b := cluster.MustNew(back, 4, 9).Module(2).Factors()
		if a != b {
			t.Fatalf("%s: round trip changed the drawn machine", spec.Name)
		}
	}
}

func TestLoadSystemRejectsBad(t *testing.T) {
	good := FromSpec(cluster.HA8K())
	cases := []func(*SystemJSON){
		func(j *SystemJSON) { j.Measurement = "thermometer" },
		func(j *SystemJSON) { j.Nodes = 0 },
		func(j *SystemJSON) { j.FMinGHz = 0 },
		func(j *SystemJSON) { j.TDPWatts = 0 },
		func(j *SystemJSON) { j.CliffExponent = 0.1 },
		func(j *SystemJSON) { j.Variation.LeakSigma = -1 },
	}
	for i, mutate := range cases {
		j := good
		mutate(&j)
		if _, err := j.Spec(); err == nil {
			t.Errorf("bad system %d accepted", i)
		}
	}
	if _, err := LoadSystem(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
}
