package flight

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"varpower/internal/units"
)

func TestRingEviction(t *testing.T) {
	r := newRing[int](3)
	for i := 1; i <= 5; i++ {
		r.push(i)
	}
	got := r.items()
	want := []int{3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("items = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("items = %v, want %v", got, want)
		}
	}
	if r.dropped != 2 {
		t.Fatalf("dropped = %d, want 2", r.dropped)
	}
}

func TestCaptureIgnoresEmptyIntervals(t *testing.T) {
	rec := New(Config{})
	c := rec.NewCapture("x")
	c.Interval(0, 0, 0, PhaseCompute, 5, 5) // zero-length
	c.Interval(0, 0, 0, PhaseCompute, 5, 4) // negative
	c.Interval(0, 0, 0, PhaseCompute, 5, 6) // kept
	if n := c.intervals.len(); n != 1 {
		t.Fatalf("retained %d intervals, want 1", n)
	}
}

func TestNilCaptureIsSafe(t *testing.T) {
	var c *Capture
	c.Interval(0, 0, 0, PhaseCompute, 0, 1)
	c.Collective(0, "barrier", 0, 0, 0, 1)
	c.Event(0, EventCapSet, 80)
	c.Synthesize(0, 0, Draw{}, Draw{}, 0, 0, 130, 1)
	c.Seal(1)
}

func TestSynthesizeBusyVsWait(t *testing.T) {
	rec := New(Config{Hz: 1})
	c := rec.NewCapture("x")
	// Rank computes over [0,2) and [5,8); waits otherwise.
	c.Interval(0, 7, 0, PhaseCompute, 0, 2)
	c.Interval(0, 7, 0, PhaseCompute, 5, 8)
	busy := Draw{CPU: 100, Dram: 50}
	wait := Draw{CPU: 92, Dram: 10}
	c.Synthesize(0, 7, busy, wait, 80, units.GHz(2), 192, 9)
	c.Seal(9)
	rec.Commit(c)

	tl := rec.Snapshot()
	if len(tl.Runs) != 1 {
		t.Fatalf("runs = %d", len(tl.Runs))
	}
	// Ticks at 1 Hz over [0,9]: t=0,1 busy; 2,3,4 wait; 5,6,7 busy; 8,9 wait.
	wantBusy := map[int]bool{0: true, 1: true, 5: true, 6: true, 7: true}
	samples := tl.Runs[0].Samples
	if len(samples) != 10 {
		t.Fatalf("samples = %d, want 10", len(samples))
	}
	for i, s := range samples {
		want := wait
		if wantBusy[i] {
			want = busy
		}
		if s.CPUPower != want.CPU || s.DramPower != want.Dram {
			t.Fatalf("sample %d at t=%v: draw (%v,%v), want (%v,%v)",
				i, s.T, s.CPUPower, s.DramPower, want.CPU, want.Dram)
		}
		if s.Cap != 80 || s.Module != 7 {
			t.Fatalf("sample %d: cap %v module %d", i, s.Cap, s.Module)
		}
	}
}

func TestSnapshotStitchesRuns(t *testing.T) {
	rec := New(Config{Hz: -1}) // samples disabled
	a := rec.NewCapture("a")
	a.Interval(0, 0, 0, PhaseCompute, 1, 2)
	a.Seal(10)
	rec.Commit(a)
	b := rec.NewCapture("b")
	b.Interval(0, 0, 0, PhaseCompute, 3, 4)
	b.Collective(0, "barrier", 0, 0, 3, 4)
	b.Seal(5)
	rec.Commit(b)

	tl := rec.Snapshot()
	if len(tl.Runs) != 2 {
		t.Fatalf("runs = %d", len(tl.Runs))
	}
	if tl.Runs[0].Start != 0 || tl.Runs[0].End != 10 {
		t.Fatalf("run a extent [%v,%v]", tl.Runs[0].Start, tl.Runs[0].End)
	}
	if tl.Runs[1].Start != 10 || tl.Runs[1].End != 15 {
		t.Fatalf("run b extent [%v,%v]", tl.Runs[1].Start, tl.Runs[1].End)
	}
	if iv := tl.Runs[1].Intervals[0]; iv.Start != 13 || iv.End != 14 {
		t.Fatalf("run b interval [%v,%v], want [13,14]", iv.Start, iv.End)
	}
	if rd := tl.Runs[1].Rounds[0]; rd.Earliest != 13 || rd.Latest != 14 {
		t.Fatalf("run b round [%v,%v], want [13,14]", rd.Earliest, rd.Latest)
	}
	if tl.End() != 15 {
		t.Fatalf("End = %v", tl.End())
	}
}

// TestEventLanesDeterministic fills event lanes in scrambled module order,
// a module's two events apart, and asserts the snapshot flattens them
// identically every time: per-module lanes in sorted module order,
// insertion order within a lane.
func TestEventLanesDeterministic(t *testing.T) {
	render := func(seed int64) []Event {
		rec := New(Config{Hz: -1})
		c := rec.NewCapture("x")
		rng := rand.New(rand.NewSource(seed))
		for _, m := range rng.Perm(32) {
			c.Event(m, EventCapSet, float64(m))
		}
		for _, m := range rng.Perm(32) {
			c.Event(m, EventThrottle, float64(m)+0.5)
		}
		c.Seal(1)
		rec.Commit(c)
		return rec.Snapshot().Runs[0].Events
	}
	first := render(1)
	if len(first) != 64 {
		t.Fatalf("events = %d, want 64", len(first))
	}
	for i, e := range first {
		want := Event{Module: i / 2, Kind: EventCapSet, Value: float64(i / 2)}
		if i%2 == 1 {
			want.Kind, want.Value = EventThrottle, float64(i/2)+0.5
		}
		if e != want {
			t.Fatalf("event %d is %+v, want %+v: lanes in sorted module order, insertion order within a lane", i, e, want)
		}
	}
	for seed := int64(2); seed < 6; seed++ {
		if got := render(seed); fmt.Sprint(got) != fmt.Sprint(first) {
			t.Fatalf("event order varies with the order modules were recorded in:\n%v\nvs\n%v", got, first)
		}
	}
}

func TestRecorderEvictsOldRuns(t *testing.T) {
	rec := New(Config{Hz: -1, MaxRuns: 2})
	for i := 0; i < 3; i++ {
		c := rec.NewCapture(fmt.Sprintf("run%d", i))
		c.Interval(0, 0, 0, PhaseCompute, 0, 1)
		c.Seal(1)
		rec.Commit(c)
	}
	tl := rec.Snapshot()
	if len(tl.Runs) != 2 || tl.Runs[0].Label != "run1" || tl.Runs[1].Label != "run2" {
		t.Fatalf("retained runs: %+v", tl.Runs)
	}
	if tl.DroppedRuns != 1 {
		t.Fatalf("DroppedRuns = %d, want 1", tl.DroppedRuns)
	}
}

func TestTimelineEmpty(t *testing.T) {
	rec := New(Config{Hz: -1})
	if !rec.Snapshot().Empty() {
		t.Fatal("fresh recorder not empty")
	}
	c := rec.NewCapture("x")
	c.Seal(1)
	rec.Commit(c)
	if !rec.Snapshot().Empty() {
		t.Fatal("record-free run should still be empty")
	}
	c = rec.NewCapture("y")
	c.Interval(0, 0, 0, PhaseCompute, 0, 1)
	c.Seal(1)
	rec.Commit(c)
	if rec.Snapshot().Empty() {
		t.Fatal("timeline with an interval reported empty")
	}
}

func TestTempProxy(t *testing.T) {
	if got := TempProxy(0, 192); got != 32 {
		t.Fatalf("idle temp = %v", got)
	}
	if got := TempProxy(192, 192); got != 80 {
		t.Fatalf("TDP temp = %v", got)
	}
	if got := TempProxy(100, 0); got != 32 {
		t.Fatalf("zero-TDP temp = %v", got)
	}
}

func TestAnalyzeSegments(t *testing.T) {
	rec := New(Config{Hz: 1})
	// Segment 1: two modules at 100 W / 50 W and 2 / 1 GHz — Vp = Vf = 2;
	// both ranks complete at the end (no finalize wait) — Vt = 1.
	c := rec.NewCapture("base")
	for rank, d := range []Draw{{CPU: 80, Dram: 20}, {CPU: 40, Dram: 10}} {
		c.Interval(rank, rank, 0, PhaseCompute, 0, 4)
		c.Synthesize(rank, rank, d, d, 0, units.GHz(float64(2-rank)), 192, 4)
	}
	c.Seal(4)
	rec.Commit(c)
	// Segment 2: rank 1 finishes at t=2 and waits in finalize — Vt = 2.
	c = rec.NewCapture("capped")
	c.Interval(0, 0, 0, PhaseCompute, 0, 4)
	c.Interval(1, 1, 0, PhaseCompute, 0, 2)
	c.Interval(1, 1, -1, PhaseFinalizeWait, 2, 4)
	c.Seal(4)
	rec.Commit(c)

	a := Analyze(rec.Snapshot(), 0)
	if len(a.Segments) != 2 {
		t.Fatalf("segments = %d", len(a.Segments))
	}
	s0 := a.Segments[0]
	if s0.Vp != 2 || s0.Vf != 2 {
		t.Fatalf("segment 0 Vp=%v Vf=%v, want 2/2", s0.Vp, s0.Vf)
	}
	if s0.Vt != 1 || s0.VtNorm != 1 {
		t.Fatalf("segment 0 Vt=%v VtNorm=%v, want 1/1", s0.Vt, s0.VtNorm)
	}
	s1 := a.Segments[1]
	if s1.Vt != 2 {
		t.Fatalf("segment 1 Vt=%v, want 2 (rank 1 done at 2s, rank 0 at 4s)", s1.Vt)
	}
	// Normalized per rank against segment 0 (both ranks there end at 4):
	// rank 0 → 4/4 = 1, rank 1 → 2/4 = 0.5 → VtNorm = 2.
	if s1.VtNorm != 2 {
		t.Fatalf("segment 1 VtNorm=%v, want 2", s1.VtNorm)
	}
	// Wait fraction: 2 of 8 rank-seconds.
	if s1.WaitFrac != 0.25 {
		t.Fatalf("segment 1 WaitFrac=%v, want 0.25", s1.WaitFrac)
	}
}

func TestAnalyzeStragglers(t *testing.T) {
	rec := New(Config{Hz: -1})
	c := rec.NewCapture("x")
	c.Collective(0, "barrier", 3, 30, 0, 3)   // stall 3
	c.Collective(1, "barrier", 3, 30, 3, 4)   // stall 1
	c.Collective(2, "allreduce", 1, 10, 4, 5) // stall 1
	c.Seal(5)
	rec.Commit(c)
	a := Analyze(rec.Snapshot(), 0)
	if a.TotalStall != 5 {
		t.Fatalf("TotalStall = %v, want 5", a.TotalStall)
	}
	if len(a.Stragglers) != 2 {
		t.Fatalf("stragglers = %+v", a.Stragglers)
	}
	top := a.Stragglers[0]
	if top.Module != 30 || top.Rounds != 2 || top.Stall != 4 || top.Share != 0.8 {
		t.Fatalf("top straggler = %+v", top)
	}
}

func TestWriteCSVQuotesLabels(t *testing.T) {
	rec := New(Config{Hz: 1})
	c := rec.NewCapture(`a,"b"`)
	c.Synthesize(0, 0, Draw{CPU: 1}, Draw{CPU: 1}, 0, units.GHz(1), 192, 0.5)
	c.Seal(0.5)
	rec.Commit(c)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, rec.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"a,""b"""`)) {
		t.Fatalf("label not CSV-quoted:\n%s", buf.String())
	}
}
