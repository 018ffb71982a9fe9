package main

import (
	"bytes"
	"testing"
)

func streamOf(t *testing.T, name string, seed uint64, n int) (*plan, []op) {
	t.Helper()
	caps, err := newCapacities()
	if err != nil {
		t.Fatal(err)
	}
	p, err := newPlan(name, seed, caps)
	if err != nil {
		t.Fatal(err)
	}
	ops, _ := p.take(n)
	return p, ops
}

func TestPlansAreDeterministicInTheSeed(t *testing.T) {
	for _, name := range []string{"hot-direct", "hot-routed", "sweep-mixed", "churn"} {
		a, opsA := streamOf(t, name, 7, 3000)
		b, opsB := streamOf(t, name, 7, 3000)
		_, opsC := streamOf(t, name, 8, 3000)
		if len(a.keys) != len(b.keys) {
			t.Fatalf("%s: key counts differ", name)
		}
		for i := range a.keys {
			if a.keys[i] != b.keys[i] {
				t.Fatalf("%s: key %d differs across runs of one seed", name, i)
			}
		}
		same := true
		for i := range opsA {
			if !bytes.Equal(opsA[i].body, opsB[i].body) || opsA[i].kind != opsB[i].kind {
				t.Fatalf("%s: op %d differs across runs of one seed", name, i)
			}
			same = same && bytes.Equal(opsA[i].body, opsC[i].body)
		}
		if same {
			t.Errorf("%s: seeds 7 and 8 generated the same stream", name)
		}
	}
}

func TestScheduleSpacing(t *testing.T) {
	p, _ := streamOf(t, "hot-direct", 1, 0)
	_, due := p.take(4001)
	if due[0] != 0 || due[4000].Seconds() != 1 {
		t.Errorf("4000 rps schedule: op 4000 due at %v, want 1s", due[4000])
	}
}

func TestWholePeriodsCarryTheMix(t *testing.T) {
	for _, name := range []string{"sweep-mixed", "churn"} {
		p, _ := streamOf(t, name, 5, 0)
		p.take(37) // windows start anywhere in the stream
		n := p.wholePeriods(100)
		if n%p.period != 0 || n < 100 {
			t.Fatalf("%s: wholePeriods(100) = %d with period %d", name, n, p.period)
		}
		ops, _ := p.take(n)
		kinds := map[opKind]int{}
		fresh := 0
		for _, o := range ops {
			kinds[o.kind]++
			if o.solve.Seed != 0 {
				fresh++
			}
		}
		periods := n / p.period
		switch name {
		case "sweep-mixed":
			if fresh != periods {
				t.Errorf("sweep-mixed: %d fresh-seed solves in %d periods", fresh, periods)
			}
		case "churn":
			if kinds[opRecal] != periods || kinds[opJob] != 10*periods {
				t.Errorf("churn: %d recalibrations and %d jobs in %d periods", kinds[opRecal], kinds[opJob], periods)
			}
		}
	}
}

func TestWorkloadMixes(t *testing.T) {
	hot, ops := streamOf(t, "hot-direct", 3, 20000)
	if len(hot.keys) != 252 {
		t.Errorf("hot key set has %d keys, want 252", len(hot.keys))
	}
	for _, o := range ops {
		if o.kind != opSolve || o.key < 0 {
			t.Fatal("hot-direct sends only repeated-key solves")
		}
	}

	_, ops = streamOf(t, "sweep-mixed", 3, 16000)
	seen := make(map[string]bool)
	hybrid, fresh := 0, 0
	for _, o := range ops {
		if seen[string(o.body)] {
			t.Fatalf("sweep-mixed repeated %s", o.body)
		}
		seen[string(o.body)] = true
		if o.system == hybridPreset {
			hybrid++
		}
		if o.solve.Seed != 0 {
			fresh++
		}
	}
	if hybrid != 2000 || fresh != 250 {
		t.Errorf("sweep-mixed: %d hybrid (want 2000), %d fresh-seed (want 250) of 16000", hybrid, fresh)
	}

	churn, ops := streamOf(t, "churn", 3, 2000)
	kinds := map[opKind]int{}
	for _, o := range ops {
		kinds[o.kind]++
	}
	if len(churn.keys) != 60 || kinds[opRecal] != 4 || kinds[opJob] != 40 {
		t.Errorf("churn: %d keys, %d recalibrations and %d jobs per second; want 60, 4, 40",
			len(churn.keys), kinds[opRecal], kinds[opJob])
	}
}
