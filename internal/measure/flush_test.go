package measure

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"
	"testing"

	"varpower/internal/simmpi"
	"varpower/internal/telemetry"
	"varpower/internal/units"
	"varpower/internal/workload"
)

// exported returns the default registry in Prometheus text form.
func exported(t *testing.T) string {
	t.Helper()
	var buf bytes.Buffer
	if err := telemetry.WritePrometheus(&buf, telemetry.Default()); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// samples reads every sample line of an export, by series (a series
// registered but never written reads 0, as an absent one does).
func samples(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// writeCounts keeps the counters' values and the histograms' sample
// counts of samples(text): the number of writes each metric has received.
func writeCounts(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for series, v := range samples(t, text) {
		name, _, _ := strings.Cut(series, "{")
		if strings.HasSuffix(name, "_total") || strings.HasSuffix(name, "_count") {
			out[series] = v
		}
	}
	return out
}

// spyProgram is a DES program that calls check while it plays its last
// round.
type spyProgram struct {
	simmpi.Program
	check func()
}

func (p spyProgram) Round(r int) int {
	if r == p.Rounds()-1 {
		p.check()
	}
	return p.Program.Round(r)
}

// spyControl calls check when a limit or a clock is programmed on its
// module (a rapl and a cpufreq listener).
type spyControl struct{ check func() }

func (s spyControl) LimitSet(int, units.Watts)  { s.check() }
func (s spyControl) LimitCleared(int)           {}
func (s spyControl) Throttled(int, units.Hertz) {}
func (s spyControl) SpeedSet(int, units.Hertz)  { s.check() }
func (s spyControl) Released(int)               {}

// kindRounds counts prog's rounds per kind, by the series of
// varpower_mpi_rounds_total that counts them.
func kindRounds(prog simmpi.Program) map[string]float64 {
	out := make(map[string]float64)
	for r := 0; r < prog.Rounds(); r++ {
		var kind string
		switch prog.Tables()[prog.Round(r)][0].(type) {
		case simmpi.Compute:
			kind = "compute"
		case simmpi.Sendrecv:
			kind = "sendrecv"
		case simmpi.Barrier:
			kind = "barrier"
		case simmpi.Allreduce:
			kind = "allreduce"
		}
		out[`varpower_mpi_rounds_total{kind="`+kind+`"}`]++
	}
	return out
}

// TestRunPublishesWhenItReturns: a measured run publishes none of its
// metric writes before it returns — the registry reads the same while the
// last rank's limit or clock is programmed and while the DES plays its
// last round — and once it has returned, each metric has received exactly
// the writes an unbatched run makes: one run, per-rank limit writes, clamp
// events and power-above-cap samples, throttles, governor sets and
// transitions, the DES's rounds per kind and per-rank busy and wait
// samples, per-rank rank waits, one sample of each phase and one parallel
// task per rank and loop. A capped run that fails at rank k (its cap lies
// below the module's idle floor) counts the writes of ranks 0…k and none
// of the later stages'. 12 ranks of MHD on HA8K, at one worker, held and
// unheld.
func TestRunPublishesWhenItReturns(t *testing.T) {
	const n, k = 12, 7
	bench := workload.MHD()
	for _, c := range []struct {
		name   string
		mode   Mode
		fail   bool
		holdOn bool
	}{
		{"capped", ModeCapped, false, true},
		{"capped, no hold", ModeCapped, false, false},
		{"capped, failing at rank k", ModeCapped, true, true},
		{"pinned", ModePinned, false, true},
		{"pinned, no hold", ModePinned, false, false},
	} {
		sys, ids := testSystem(t, n)
		cfg := Config{Bench: bench, Modules: ids, Mode: c.mode, Workers: 1}
		last := n - 1
		if c.fail {
			last = k
		}
		caps := make([]units.Watts, n)
		freqs := make([]units.Hertz, n)
		for i := range caps {
			caps[i] = 45
			freqs[i] = sys.Spec.Arch.FMin
		}
		if c.fail {
			caps[k] = 1
		}
		cfg.CPUCaps, cfg.Freqs = caps, freqs
		hold, err := NewHold(sys, bench, ids)
		if err != nil {
			t.Fatal(err)
		}
		prog := hold.prog
		before := exported(t)
		checks := 0
		check := func() {
			checks++
			now, was := samples(t, exported(t)), samples(t, before)
			for series := range now {
				if now[series] != was[series] && series != "varpower_parallel_tasks_total" {
					t.Errorf("%s: the run published %s before it returned", c.name, series)
				}
			}
		}
		if c.holdOn {
			hold.prog = spyProgram{Program: prog, check: check}
			cfg.Hold = hold
		}
		sys.RAPL(ids[last]).SetListener(spyControl{check})
		sys.Governor(ids[last]).SetListener(spyControl{check})

		_, err = Run(sys, cfg)
		if (err != nil) != c.fail {
			t.Fatalf("%s: error %v", c.name, err)
		}
		if wantChecks := 1 + btoi(c.holdOn && !c.fail); checks != wantChecks {
			t.Fatalf("%s: %d mid-run checks ran, want %d", c.name, checks, wantChecks)
		}

		// The writes an unbatched run makes, rank by rank.
		want := make(map[string]float64)
		resolved := n
		if c.fail {
			resolved = k + 1
		}
		want[`varpower_parallel_tasks_total`] += float64(resolved)
		switch c.mode {
		case ModeCapped:
			want[`varpower_measure_runs_total{mode="capped"}`] = 1
			want[`varpower_rapl_limit_writes_total`] = float64(resolved)
			prof := bench.ProfileFor(sys.Spec.Arch)
			for rank := 0; rank < resolved; rank++ {
				op, ok := sys.Module(ids[rank]).CurveWith(prof, hold.resid[rank]).Capped(caps[rank])
				if !ok {
					want[`varpower_rapl_infeasible_total`]++
					continue
				}
				if hold.uncapped[rank].CPUPower > caps[rank] {
					want[`varpower_rapl_clamp_events_total`]++
					want[`varpower_rapl_power_above_cap_watts_count`]++
				}
				if op.Throttled {
					want[`varpower_rapl_throttle_events_total`]++
				}
			}
		case ModePinned:
			want[`varpower_measure_runs_total{mode="pinned"}`] = 1
			want[`varpower_cpufreq_set_calls_total`] = n
			want[`varpower_cpufreq_transitions_total`] = n
		}
		want[`varpower_phase_duration_seconds_count{phase="measure.run"}`] = 1
		want[`varpower_phase_duration_seconds_count{phase="measure.resolve"}`] = 1
		if !c.fail {
			for series, v := range kindRounds(prog) {
				want[series] = v
			}
			want[`varpower_mpi_rank_busy_seconds_count`] = n
			want[`varpower_mpi_rank_wait_seconds_count`] = n
			want[`varpower_measure_rank_wait_seconds_count`] = n
			want[`varpower_phase_duration_seconds_count{phase="measure.simulate"}`] = 1
			want[`varpower_phase_duration_seconds_count{phase="measure.account"}`] = 1
			want[`varpower_parallel_tasks_total`] += n
		}
		got, was := writeCounts(t, exported(t)), writeCounts(t, before)
		for series := range got {
			if d := got[series] - was[series]; d != want[series] {
				t.Errorf("%s: %s received %v writes, want %v", c.name, series, d, want[series])
			}
		}
		for series := range want {
			if _, ok := got[series]; !ok {
				t.Errorf("%s: %s missing from the registry", c.name, series)
			}
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
