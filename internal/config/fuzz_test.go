package config

import (
	"bytes"
	"strings"
	"testing"

	"varpower/internal/cluster"
)

// FuzzLoadSystem feeds arbitrary bytes to the system loader: it must
// either return a validated spec or an error — never panic. Every accepted
// spec must survive a save/load round trip, and must be buildable into a
// (tiny) cluster without panicking.
func FuzzLoadSystem(f *testing.F) {
	var seed bytes.Buffer
	if err := SaveSystem(&seed, cluster.HA8K()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add(`{}`)
	f.Add(`{"name":"x","measurement":"rapl","nodes":-1}`)
	f.Add(`{"name":"x","measurement":"bogus"}`)
	f.Add(`[1,2,3]`)
	f.Add(`null`)
	f.Add(``)
	f.Add(strings.Repeat("{", 64))
	f.Fuzz(func(t *testing.T, input string) {
		spec, err := LoadSystem(strings.NewReader(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := SaveSystem(&buf, spec); err != nil {
			t.Fatalf("accepted spec does not save: %v", err)
		}
		again, err := LoadSystem(&buf)
		if err != nil {
			t.Fatalf("saved spec does not re-load: %v", err)
		}
		if again.Name != spec.Name || again.Measurement != spec.Measurement {
			t.Fatalf("round trip changed identity: %q/%q -> %q/%q",
				spec.Name, spec.Measurement, again.Name, again.Measurement)
		}
		// A validated spec must be constructible — the loader's contract
		// with cluster.New. A validated spec always has at least one module.
		if _, err := cluster.New(spec, 1, 1); err != nil {
			t.Fatalf("accepted spec does not build: %v", err)
		}
	})
}

// FuzzHybridSpec feeds arbitrary bytes to the system loader seeded with
// heterogeneous (CPU+GPU) descriptions: accepted hybrid specs must survive
// a save/load round trip with their GPU class intact, and must build into a
// cluster whose accelerator population matches the description. The GPU
// section must never be half-accepted — a spec either round-trips Hybrid()
// or loads CPU-only.
func FuzzHybridSpec(f *testing.F) {
	for _, spec := range cluster.HybridPresets() {
		var seed bytes.Buffer
		if err := SaveSystem(&seed, spec); err != nil {
			f.Fatal(err)
		}
		f.Add(seed.String())
	}
	var cpu bytes.Buffer
	if err := SaveSystem(&cpu, cluster.HA8K()); err != nil {
		f.Fatal(err)
	}
	f.Add(cpu.String())
	f.Add(`{"name":"x","measurement":"rapl","nodes":1,"procs_per_node":1,"gpu":{}}`)
	f.Add(`{"name":"x","measurement":"rapl","nodes":1,"procs_per_node":1,"gpu":{"per_node":-4}}`)
	f.Add(`{"name":"x","measurement":"rapl","nodes":1,"procs_per_node":1,"gpu":{"arch":"g","per_node":2,"tdp_w":-1}}`)
	f.Add(`{"gpu":null}`)
	f.Fuzz(func(t *testing.T, input string) {
		spec, err := LoadSystem(strings.NewReader(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := SaveSystem(&buf, spec); err != nil {
			t.Fatalf("accepted spec does not save: %v", err)
		}
		again, err := LoadSystem(&buf)
		if err != nil {
			t.Fatalf("saved spec does not re-load: %v", err)
		}
		if again.Hybrid() != spec.Hybrid() {
			t.Fatalf("round trip changed device classes: hybrid %v -> %v", spec.Hybrid(), again.Hybrid())
		}
		if !spec.Hybrid() {
			return
		}
		if again.GPU.PerNode != spec.GPU.PerNode || again.GPU.Arch.Name != spec.GPU.Arch.Name {
			t.Fatalf("round trip changed GPU class: %+v -> %+v", spec.GPU, again.GPU)
		}
		// Bound the build so fuzzing stays fast on machine-scale specs; the
		// partial instantiation keeps the preset's CPU:GPU ratio.
		n := spec.TotalModules()
		if n > 2*spec.ProcsPerNode {
			n = 2 * spec.ProcsPerNode
		}
		sys, err := cluster.New(spec, n, 1)
		if err != nil {
			t.Fatalf("accepted hybrid spec does not build: %v", err)
		}
		nodes := (n + spec.ProcsPerNode - 1) / spec.ProcsPerNode
		if want := nodes * spec.GPU.PerNode; sys.NumGPUs() != want {
			t.Fatalf("built %d GPUs over %d nodes, want %d", sys.NumGPUs(), nodes, want)
		}
	})
}
