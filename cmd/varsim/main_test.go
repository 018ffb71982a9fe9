package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"varpower/internal/experiments"
	"varpower/internal/faults"
)

// TestRunGolden pins varsim's stdout: each golden in testdata is what
// `varsim -experiment <exp> -modules <modules> -quiet` printed, with the
// case's -workers, -faults and -plot flags, before run walked a table.
// The fleet golden leaves out the wall-clock profile line, which no two
// runs share.
func TestRunGolden(t *testing.T) {
	const chaos = "../../testdata/chaos-plan.json"
	cases := []struct {
		golden, exp    string
		modules, width int
		faults         string
		plot           bool
	}{
		{"all-48", "all", 48, 1, "", false},
		{"all-48", "all", 48, 0, "", false},
		{"all-96-plot", "all", 96, 0, "", true},
		{"vt-timeline-48", "vt-timeline", 48, 0, "", false},
		{"drift-64", "drift", 64, 0, "", false},
		{"resilience-64", "resilience", 64, 0, "", false},
		{"resilience-64-chaos", "resilience", 64, 0, chaos, false},
		{"hetero-32", "hetero", 32, 0, "", false},
		{"hetero-32-chaos", "hetero", 32, 0, chaos, false},
		{"fleet-48", "fleet", 48, 0, "", false},
	}
	wallClock := regexp.MustCompile(`(?m)^Wall-clock profile.*\n`)
	for _, c := range cases {
		o := experiments.Options{HA8KModules: c.modules, FleetModules: c.modules, HeteroModules: c.modules, Workers: c.width}
		if c.faults != "" {
			f, err := os.Open(c.faults)
			if err != nil {
				t.Fatal(err)
			}
			o.Faults, err = faults.Load(f)
			f.Close()
			if err != nil {
				t.Fatal(err)
			}
		}
		plotShapes = c.plot
		var got bytes.Buffer
		err := run(&got, c.exp, o)
		plotShapes = false
		if err != nil {
			t.Fatalf("%s (workers %d): %v", c.golden, c.width, err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", c.golden+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		if out := wallClock.ReplaceAll(got.Bytes(), nil); !bytes.Equal(out, want) {
			t.Errorf("%s (workers %d) diverges from its golden\n got:\n%s\nwant:\n%s", c.golden, c.width, out, want)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	err := run(&out, "bogus", experiments.Options{HA8KModules: 48})
	if err == nil || err.Error() != `unknown experiment "bogus"` {
		t.Fatalf("run(bogus) = %v, want unknown experiment \"bogus\"", err)
	}
	if out.Len() != 0 {
		t.Fatalf("run(bogus) printed %q", out.String())
	}
}
