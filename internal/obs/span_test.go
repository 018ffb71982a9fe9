package obs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"varpower/internal/telemetry"
)

// phaseCount reads one phase's sample count from the default registry.
func phaseCount(phase string) uint64 {
	return telemetry.Default().Histogram(telemetry.PhaseDurationMetric, "", telemetry.DefTimeBuckets,
		telemetry.Labels{"phase": phase}).Snapshot().Count
}

// stepClock hands out instants one millisecond apart.
func stepClock() func() time.Time {
	var mu sync.Mutex
	t := time.Unix(1000, 0)
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		t = t.Add(time.Millisecond)
		return t
	}
}

// TestUntracedSpansAreTimedAndFree: outside a trace, a span and a child
// with attributes still feed the phase histogram, and the whole sequence
// allocates nothing — including SetInt with values strconv would box.
func TestUntracedSpansAreTimedAndFree(t *testing.T) {
	failure := errors.New("ignored outside a trace")
	run := func() {
		ctx, outer := StartSpan(context.Background(), "obs.test.outer")
		outer.SetAttr("bench", "mhd")
		outer.SetFloat("budget_w", 6700.5)
		_, inner := StartSpan(ctx, "obs.test.inner")
		inner.SetInt("modules", 1920)
		leaf := inner.Start("obs.test.leaf")
		leaf.Fail(failure)
		leaf.End()
		inner.End()
		outer.End()
		outer.End() // idempotent on the same variable
	}
	before := phaseCount("obs.test.outer")
	run()
	for _, phase := range []string{"obs.test.outer", "obs.test.inner", "obs.test.leaf"} {
		if n := phaseCount(phase); n == 0 {
			t.Fatalf("phase %s not recorded", phase)
		}
	}
	if got := phaseCount("obs.test.outer"); got != before+1 {
		t.Fatalf("outer recorded %d times, want once", got-before)
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("untraced spans allocate %.1f/op, want 0", allocs)
	}
}

// TestTracedTreeRendersNestedDurations pins WriteTree's layout under a
// stepping clock: children under their parent in start order, durations,
// attributes and errors, and "…" for a span still running. Every child
// feeds the phase histogram once; the entry's root does not.
func TestTracedTreeRendersNestedDurations(t *testing.T) {
	phases := []string{"obs.test.root", "obs.test.run", "obs.test.solve", "obs.test.exec", "obs.test.open"}
	before := map[string]uint64{}
	for _, p := range phases {
		before[p] = phaseCount(p)
	}
	o := New(Config{IDSeed: 3, Now: stepClock()})
	ctx, rt := o.StartRequest(context.Background(), Request{Route: "obs.test.root"})
	ctx, run := StartSpan(ctx, "obs.test.run")
	run.SetAttr("scheme", "VaPc")
	solve := run.Start("obs.test.solve")
	solve.SetInt("modules", 96)
	solve.End()
	_, exec := StartSpan(ctx, "obs.test.exec")
	exec.Fail(fmt.Errorf("rank 3 died"))
	exec.End()
	copied := run
	run.End()
	copied.End() // a copy of an ended traced span records nothing more
	open := rt.Root().Start("obs.test.open")

	var buf bytes.Buffer
	if err := rt.WriteTree(&buf); err != nil {
		t.Fatal(err)
	}
	want := "obs.test.root  …\n" +
		"  obs.test.run  5ms  [scheme=VaPc]\n" +
		"    obs.test.solve  1ms  [modules=96]\n" +
		"    obs.test.exec  1ms  [err=\"rank 3 died\"]\n" +
		"  obs.test.open  …\n"
	if buf.String() != want {
		t.Fatalf("tree:\n%s\nwant:\n%s", buf.String(), want)
	}
	open.End()
	o.EndRequest(rt, 200)
	for _, p := range phases {
		want := uint64(1)
		if p == "obs.test.root" {
			want = 0
		}
		if n := phaseCount(p) - before[p]; n != want {
			t.Errorf("phase %s recorded %d times, want %d", p, n, want)
		}
	}
}

// TestConcurrentEndKeepsStartOrder ends traced children in scrambled order
// from racing goroutines: each records one duration, and the tree keeps
// start order.
func TestConcurrentEndKeepsStartOrder(t *testing.T) {
	o := New(Config{IDSeed: 9})
	_, rt := o.StartRequest(context.Background(), Request{Route: "batch"})
	const n = 32
	before := phaseCount("obs.test.job00")
	spans := make([]Span, n)
	for i := range spans {
		spans[i] = rt.Root().Start(fmt.Sprintf("obs.test.job%02d", i))
	}
	var wg sync.WaitGroup
	for i := range spans {
		sp := spans[(i*17+5)%n]
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(sp Span) {
				defer wg.Done()
				sp.End()
			}(sp)
		}
	}
	wg.Wait()
	var buf bytes.Buffer
	if err := rt.WriteTree(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != n+1 {
		t.Fatalf("tree has %d lines, want %d:\n%s", len(lines), n+1, buf.String())
	}
	for i, line := range lines[1:] {
		name := fmt.Sprintf("obs.test.job%02d", i)
		if !strings.HasPrefix(line, "  "+name+"  ") {
			t.Fatalf("tree line %d = %q, want %s (start order)", i+1, line, name)
		}
		if c := phaseCount(name) - before; c != 1 {
			t.Fatalf("%s recorded %d durations, want 1", name, c)
		}
	}
}

// TestConcurrentUntracedEndsShareOneSeries ends untraced spans of one
// phase from racing goroutines (on a first run, of a phase no span has
// ended yet): whichever End resolves the phase's histogram first, every
// duration lands in the one registry series.
func TestConcurrentUntracedEndsShareOneSeries(t *testing.T) {
	const goroutines, spans = 8, 50
	before := phaseCount("obs.test.concurrent_first")
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < spans; i++ {
				var root Span
				sp := root.Start("obs.test.concurrent_first")
				sp.End()
			}
		}()
	}
	wg.Wait()
	if n := phaseCount("obs.test.concurrent_first") - before; n != goroutines*spans {
		t.Fatalf("phase recorded %d durations, want %d", n, goroutines*spans)
	}
}
