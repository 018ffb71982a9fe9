package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"varpower/internal/cliutil"
)

var update = flag.Bool("update", false, "rewrite testdata/cpu.golden")

// TestCPUGolden pins powbudget's CPU-only output for every scheme at one
// configuration: 32 HA8K modules, *DGEMM, a 2.4 kW budget, the default
// seed. Regenerate with
//
//	go test ./cmd/powbudget -run TestCPUGolden -update
func TestCPUGolden(t *testing.T) {
	var got bytes.Buffer
	for _, scheme := range []string{"naive", "pc", "vapc", "vapcor", "vafs", "vafsor"} {
		fs := flag.NewFlagSet("powbudget", flag.ContinueOnError)
		o := cliutil.AddFlags(fs)
		if err := fs.Parse([]string{"-quiet"}); err != nil {
			t.Fatal(err)
		}
		if err := o.Start("powbudget"); err != nil {
			t.Fatal(err)
		}
		if err := run(&got, "dgemm", "2.4kW", "ha8k", 32, scheme, "", 0x5c15, 8, 1, o); err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if err := o.Close(); err != nil {
			t.Fatal(err)
		}
		got.WriteString("\n")
	}
	path := filepath.Join("testdata", "cpu.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("powbudget output diverges from %s\n got:\n%s\nwant:\n%s", path, got.Bytes(), want)
	}
}
