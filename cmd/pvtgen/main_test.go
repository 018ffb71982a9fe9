package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"varpower/internal/cliutil"
)

var update = flag.Bool("update", false, "rewrite testdata/hybrid.golden")

// TestHybridEnvelopeGolden pins pvtgen's hybrid output — the "cpu" and "gpu"
// sections of an 8-module HA8K-hybrid, healthy and under
// testdata/chaos-plan.json — byte for byte, GPU section keys included.
// Regenerate with
//
//	go test ./cmd/pvtgen -run TestHybridEnvelopeGolden -update
func TestHybridEnvelopeGolden(t *testing.T) {
	var got []byte
	for _, args := range [][]string{
		{"-quiet"},
		{"-quiet", "-faults", filepath.Join("..", "..", "testdata", "chaos-plan.json")},
	} {
		fs := flag.NewFlagSet("pvtgen", flag.ContinueOnError)
		o := cliutil.AddFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		if err := o.Start("pvtgen"); err != nil {
			t.Fatal(err)
		}
		out := filepath.Join(t.TempDir(), "pvt.json")
		if err := run("HA8K-hybrid", "", 8, 0x5c15, out, 1, o); err != nil {
			t.Fatal(err)
		}
		if err := o.Close(); err != nil {
			t.Fatal(err)
		}
		body, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, body...)
	}
	path := filepath.Join("testdata", "hybrid.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("hybrid envelope diverges from %s\n got: %s\nwant: %s", path, got, want)
	}
}
