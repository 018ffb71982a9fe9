package simmpi

import (
	"cmp"
	"fmt"
	"math"
	"strings"
	"testing"

	"varpower/internal/units"
	"varpower/internal/xrand"
)

// referenceRun is the lockstep engine as it ran before tables were
// resolved once per run: every (rank, round) asks the Program for its op,
// type-asserts it, and calls the Model or prices the message on the spot.
// On valid programs RunFaulty must match it bit for bit — results, errors
// and probe calls. It carries one fix with the engine: a round's arrival
// spread covers live ranks only.
func referenceRun(p Program, size int, m Model, net Network, probe Probe, fs *FaultSpec) (Result, error) {
	if size < 1 {
		return Result{}, fmt.Errorf("simmpi: size %d < 1", size)
	}
	fault, err := newFaultState(fs, size)
	if err != nil {
		return Result{}, err
	}
	var dead []bool
	if fault != nil {
		dead = fault.dead
	}
	res := Result{Ranks: make([]RankStats, size)}
	t := make([]units.Seconds, size)
	arrive := make([]units.Seconds, size)
	tables := p.Tables()
	opAt := func(rank, r int) Op { return tables[p.Round(r)][rank] }
	kindMismatch := func(r, rank int, want, got Op) error {
		return fmt.Errorf("simmpi: SPMD violation at round %d: rank %d issues %T while rank 0 issues %T", r, rank, got, want)
	}
	rounds := p.Rounds()

	for r := 0; r < rounds; r++ {
		if fault != nil {
			for rank := 0; rank < size; rank++ {
				if fault.dies(rank, t[rank]) {
					fault.dead[rank] = true
				}
			}
		}
		proto := opAt(0, r)
		switch proto.(type) {
		case Compute:
			for rank := 0; rank < size; rank++ {
				if fault != nil && fault.dead[rank] {
					continue
				}
				op, ok := opAt(rank, r).(Compute)
				if !ok {
					return Result{}, kindMismatch(r, rank, proto, opAt(rank, r))
				}
				dt := m(rank, op.Cycles, op.Bytes)
				if dt < 0 {
					return Result{}, fmt.Errorf("simmpi: negative compute time %v at rank %d round %d", dt, rank, r)
				}
				if fault != nil && fault.dies(rank, t[rank]+dt) {
					if da := fault.deadAt[rank]; da > t[rank] {
						dt = da - t[rank]
					} else {
						dt = 0
					}
					fault.dead[rank] = true
				}
				if probe != nil && dt > 0 {
					probe.Interval(rank, r, ProbeCompute, t[rank], t[rank]+dt)
				}
				t[rank] += dt
				res.Ranks[rank].Busy += dt
			}

		case Sendrecv:
			copy(arrive, t)
			for rank := 0; rank < size; rank++ {
				if fault != nil && fault.dead[rank] {
					continue
				}
				op, ok := opAt(rank, r).(Sendrecv)
				if !ok {
					return Result{}, kindMismatch(r, rank, proto, opAt(rank, r))
				}
				start := arrive[rank]
				deadPeer := false
				for _, peer := range op.Peers {
					if peer < 0 || peer >= size {
						return Result{}, fmt.Errorf("simmpi: rank %d round %d has peer %d outside [0,%d)", rank, r, peer, size)
					}
					if fault != nil && fault.dead[peer] {
						deadPeer = true
						continue
					}
					if arrive[peer] > start {
						start = arrive[peer]
					}
				}
				if deadPeer {
					if to := arrive[rank] + fault.timeout; to > start {
						start = to
					}
				}
				xfer := net.transfer(op.Bytes)
				end := start + xfer
				st := &res.Ranks[rank]
				st.Wait += start - arrive[rank]
				st.Sendrecv += end - arrive[rank]
				t[rank] = end
				if probe != nil {
					if start > arrive[rank] {
						probe.Interval(rank, r, ProbeP2PWait, arrive[rank], start)
					}
					if xfer > 0 {
						probe.Interval(rank, r, ProbeXfer, start, end)
					}
				}
			}
			if probe != nil {
				if straggler, earliest, latest, ok := spread(arrive, dead); ok {
					probe.Collective(r, "sendrecv", straggler, earliest, latest)
				}
			}

		case Barrier, Allreduce:
			kind := "barrier"
			if _, isAR := proto.(Allreduce); isAR {
				kind = "allreduce"
			}
			copy(arrive, t)
			var max units.Seconds
			anyDead := false
			for rank := 0; rank < size; rank++ {
				if fault != nil && fault.dead[rank] {
					anyDead = true
					continue
				}
				if arrive[rank] > max {
					max = arrive[rank]
				}
			}
			if anyDead {
				max += fault.timeout
			}
			var cost units.Seconds
			if ar, ok := proto.(Allreduce); ok {
				cost = net.collectiveCost(ar.Bytes, size)
			} else {
				cost = net.collectiveCost(0, size)
			}
			for rank := 0; rank < size; rank++ {
				if fault != nil && fault.dead[rank] {
					continue
				}
				if kindOf(opAt(rank, r)) != kindOf(proto) {
					return Result{}, kindMismatch(r, rank, proto, opAt(rank, r))
				}
				st := &res.Ranks[rank]
				st.Wait += max - arrive[rank]
				t[rank] = max + cost
				if probe != nil {
					if max > arrive[rank] {
						probe.Interval(rank, r, ProbeCollectiveWait, arrive[rank], max)
					}
					if cost > 0 {
						probe.Interval(rank, r, ProbeXfer, max, max+cost)
					}
				}
			}
			if probe != nil {
				if straggler, earliest, latest, ok := spread(arrive, dead); ok {
					probe.Collective(r, kind, straggler, earliest, latest)
				}
			}

		default:
			return Result{}, fmt.Errorf("simmpi: unknown op %T at round %d", proto, r)
		}
	}

	if fault != nil {
		for rank := 0; rank < size; rank++ {
			if fault.dies(rank, t[rank]) {
				fault.dead[rank] = true
			}
		}
	}
	var maxAny units.Seconds
	for rank := 0; rank < size; rank++ {
		res.Ranks[rank].End = t[rank]
		if fault != nil && fault.dead[rank] {
			res.Ranks[rank].Dead = true
		}
		if t[rank] > maxAny {
			maxAny = t[rank]
		}
		if !res.Ranks[rank].Dead && t[rank] > res.Elapsed {
			res.Elapsed = t[rank]
		}
	}
	if res.Elapsed == 0 && fault != nil {
		res.Elapsed = maxAny
	}
	return res, nil
}

// tableProgram is a Program given directly as tables and a schedule.
type tableProgram struct {
	tables   [][]Op
	schedule []int
}

func (p tableProgram) Tables() [][]Op  { return p.tables }
func (p tableProgram) Rounds() int     { return len(p.schedule) }
func (p tableProgram) Round(r int) int { return p.schedule[r] }

// probeLog folds every probe call into an FNV-1a hash and a count, and
// keeps the calls themselves while there are at most keep of them, so
// two runs' call sequences compare cheaply at any size.
type probeLog struct {
	keep  int
	n     int
	hash  uint64
	calls []string
}

func (l *probeLog) add(fields ...uint64) {
	if l.n == 0 {
		l.hash = 14695981039346656037
	}
	l.n++
	for _, f := range fields {
		for i := 0; i < 64; i += 8 {
			l.hash ^= f >> i & 0xff
			l.hash *= 1099511628211
		}
	}
}

func (l *probeLog) Interval(rank, round int, phase ProbePhase, start, end units.Seconds) {
	l.add(0, uint64(rank), uint64(round), uint64(phase), bits(start), bits(end))
	if len(l.calls) < l.keep {
		l.calls = append(l.calls, fmt.Sprintf("interval rank=%d round=%d %v [%v, %v)", rank, round, phase, start, end))
	}
}

func (l *probeLog) Collective(round int, kind string, straggler int, earliest, latest units.Seconds) {
	l.add(1, uint64(round), uint64(kindOfName(kind)), uint64(straggler),
		bits(earliest), bits(latest))
	if len(l.calls) < l.keep {
		l.calls = append(l.calls, fmt.Sprintf("collective round=%d %s straggler=%d [%v, %v]", round, kind, straggler, earliest, latest))
	}
}

func kindOfName(kind string) opKind {
	for k, name := range kindNames {
		if name == kind {
			return opKind(k)
		}
	}
	return kindUnknown
}

// diff describes the first difference between two logs, or returns "".
func (l *probeLog) diff(o *probeLog) string {
	for i := 0; i < len(l.calls) && i < len(o.calls); i++ {
		if l.calls[i] != o.calls[i] {
			return fmt.Sprintf("probe call %d: %s, want %s", i, l.calls[i], o.calls[i])
		}
	}
	if l.n != o.n || l.hash != o.hash {
		return fmt.Sprintf("%d probe calls (hash %#x), want %d (hash %#x)", l.n, l.hash, o.n, o.hash)
	}
	return ""
}

// bits returns x's bits, signed zeros apart, with every NaN as one value:
// which operand's NaN an arithmetic op returns, sign bit included, depends
// on the operand order the compiler picks, so the two engines' NaN bits
// may differ where their values agree.
func bits(x units.Seconds) uint64 {
	if x != x {
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(float64(x))
}

// sameBits reports whether two results are bit-identical up to NaN
// payloads, signed zeros included.
func sameBits(a, b Result) bool {
	eq := func(x, y units.Seconds) bool { return bits(x) == bits(y) }
	if !eq(a.Elapsed, b.Elapsed) || len(a.Ranks) != len(b.Ranks) {
		return false
	}
	for i, x := range a.Ranks {
		y := b.Ranks[i]
		if !eq(x.End, y.End) || !eq(x.Busy, y.Busy) || !eq(x.Wait, y.Wait) ||
			!eq(x.Sendrecv, y.Sendrecv) || x.Dead != y.Dead {
			return false
		}
	}
	return true
}

// matchReference runs p on both engines, with a probe and without, and
// returns the first way RunFaulty departs from referenceRun, or "". A nil
// fs sends the unprobed run through RunFaulty's healthy loop when its
// times are ordered; the probed run always takes the general loop.
func matchReference(p Program, size int, m Model, net Network, fs *FaultSpec, keep int) string {
	want, wantErr := referenceRun(p, size, m, net, nil, fs)
	got, gotErr := RunFaulty(p, size, m, net, nil, fs)
	if msg := compareRuns(got, gotErr, want, wantErr); msg != "" {
		return "unprobed: " + msg
	}
	wantLog, gotLog := &probeLog{keep: keep}, &probeLog{keep: keep}
	want, wantErr = referenceRun(p, size, m, net, wantLog, fs)
	got, gotErr = RunFaulty(p, size, m, net, gotLog, fs)
	if msg := compareRuns(got, gotErr, want, wantErr); msg != "" {
		return "probed: " + msg
	}
	return gotLog.diff(wantLog)
}

func compareRuns(got Result, gotErr error, want Result, wantErr error) string {
	switch {
	case (gotErr == nil) != (wantErr == nil):
		return fmt.Sprintf("error %v, want %v", gotErr, wantErr)
	case gotErr != nil && gotErr.Error() != wantErr.Error():
		return fmt.Sprintf("error %q, want %q", gotErr, wantErr)
	case !sameBits(got, want):
		return fmt.Sprintf("result\n%+v\nwant\n%+v", got, want)
	}
	return ""
}

// source supplies the choices a generated case is made of.
type source interface {
	Intn(n int) int
	Float64() float64
}

// byteSource draws choices from fuzzer bytes, then zeros once they run out.
type byteSource struct{ data []byte }

func (s *byteSource) next() int {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return int(b)
}

func (s *byteSource) Intn(n int) int { return (s.next()<<8 | s.next()) % n }

func (s *byteSource) Float64() float64 { return float64(s.next()<<8|s.next()) / (1 << 16) }

// runCase is one generated RunFaulty input.
type runCase struct {
	prog tableProgram
	size int
	m    Model
	net  Network
	fs   *FaultSpec
}

// genCase builds a random valid SPMD program — 1–64 ranks, 1–4 tables of
// any kinds reused across up to 40 rounds, 0–9 peers per rank that may be
// the rank itself or repeat, so a sendrecv table's widest list is shorter
// than, as long as or longer than six — with a per-rank model, a network
// and, half the time, deaths before, during or after the run. Some times
// are zero, negative zero, +Inf or NaN, and some wire times are negative,
// so the engines are compared on clocks that do not order too.
func genCase(src source) runCase {
	size := 1 + src.Intn(64)
	pick := func(vals ...float64) float64 { return vals[src.Intn(len(vals))] }
	amount := func(scale float64) float64 {
		if src.Intn(32) == 0 {
			return pick(0, math.Copysign(0, -1), math.Inf(1), math.NaN())
		}
		return src.Float64() * scale
	}
	tables := make([][]Op, 1+src.Intn(4))
	for i := range tables {
		kind := src.Intn(4)
		ops := make([]Op, size)
		for rank := range ops {
			switch kind {
			case 0:
				ops[rank] = Compute{Cycles: amount(5), Bytes: amount(1e9)}
			case 1:
				peers := make([]int, src.Intn(10))
				for j := range peers {
					peers[j] = src.Intn(size)
				}
				ops[rank] = Sendrecv{Peers: peers, Bytes: amount(1e6)}
			case 2:
				ops[rank] = Barrier{}
			default:
				ops[rank] = Allreduce{Bytes: amount(1e4)}
			}
		}
		tables[i] = ops
	}
	schedule := make([]int, src.Intn(41))
	for r := range schedule {
		schedule[r] = src.Intn(len(tables))
	}
	speed := make([]float64, size)
	for rank := range speed {
		speed[rank] = 0.5 + src.Float64()
	}
	m := Model(func(rank int, cycles, bytes float64) units.Seconds {
		return units.Seconds(cycles*speed[rank] + bytes/1e9)
	})
	net := Network{Latency: units.Seconds(amount(1e-3)), Bandwidth: pick(0, 1e6, 1e9)}
	if src.Intn(16) == 0 {
		net.Latency = -net.Latency
	}
	var fs *FaultSpec
	if src.Intn(2) == 0 {
		fs = &FaultSpec{Timeout: units.Seconds(pick(0, 0.5, 2) * src.Float64())}
		if src.Intn(4) > 0 {
			// Death times span before the start, the run and well past its
			// end (a round takes at most ~5 s of compute).
			horizon := 6 * float64(len(schedule)+1)
			fs.DeadAt = make([]units.Seconds, size)
			for rank := range fs.DeadAt {
				fs.DeadAt[rank] = -1
				if src.Intn(3) == 0 {
					fs.DeadAt[rank] = units.Seconds(pick(0, 1, 1, 1) * src.Float64() * horizon)
				}
			}
		}
	}
	return runCase{prog: tableProgram{tables: tables, schedule: schedule}, size: size, m: m, net: net, fs: fs}
}

func (c runCase) check(t *testing.T) {
	t.Helper()
	if msg := matchReference(c.prog, c.size, c.m, c.net, c.fs, 64); msg != "" {
		t.Fatalf("%d ranks, %d tables, %d rounds, net %+v, faults %+v: %s",
			c.size, len(c.prog.tables), len(c.prog.schedule), c.net, c.fs, msg)
	}
}

// TestRunFaultyMatchesReference: on random programs the table-resolving
// engine and the per-(rank, round) reference agree bit for bit, on
// sendrecv tables whose widest peer list is shorter than, as long as and
// longer than the six-wide row.
func TestRunFaultyMatchesReference(t *testing.T) {
	n := 3000
	if testing.Short() {
		n = 300
	}
	widest := map[int]int{} // sendrecv tables by the sign of widest list − 6
	for seed := 0; seed < n; seed++ {
		c := genCase(xrand.New(uint64(seed)))
		for _, ops := range c.prog.tables {
			if _, ok := ops[0].(Sendrecv); ok {
				w := 0
				for _, op := range ops {
					w = max(w, len(op.(Sendrecv).Peers))
				}
				widest[cmp.Compare(w, 6)]++
			}
		}
		c.check(t)
	}
	if widest[-1] == 0 || widest[0] == 0 || widest[1] == 0 {
		t.Fatalf("sendrecv tables by widest list vs six (-1, 0, +1): %v", widest)
	}
}

// FuzzRunFaulty compares the engines on fuzzer-built cases. An unprobed
// case takes the healthy loop only when it has no faults and its times are
// ordered; every other run, probed ones included, takes the general loop.
func FuzzRunFaulty(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 40, 0, 2, 0, 1, 0, 3, 0, 0, 0, 9, 1, 0})
	f.Add([]byte("\x00\x05\x00\x01\x00\x01\x00\x03\x00\x01\x00\x02\x00\x07\x00\x06\x00\x20"))
	f.Fuzz(func(t *testing.T, data []byte) {
		genCase(&byteSource{data: data}).check(t)
	})
}

// TestHealthyLoopEntryRule: a healthy, unprobed run plays in the healthy
// loop, whose peer scan compares clocks as integers, only when resolve
// finds its times ordered; on inputs where that order breaks — NaN times,
// negative wire times — it plays in the general loop. Either way the
// result is the reference engine's, bit for bit. The ordered cases pin
// the integer scan where it is easiest to get wrong: −0 and +Inf compute
// times, and clocks that tie because messages cost nothing.
func TestHealthyLoopEntryRule(t *testing.T) {
	const size = 12
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	// compute gives every rank its own amount of work, with special
	// values at the listed ranks.
	compute := func(special map[int]float64) []Op {
		ops := make([]Op, size)
		for rank := range ops {
			c, ok := special[rank]
			if !ok {
				c = 1 + 0.25*float64(rank%5)
			}
			ops[rank] = Compute{Cycles: c}
		}
		return ops
	}
	// ring exchanges bytes with both neighbours on a ring.
	ring := func(bytes float64) []Op {
		ops := make([]Op, size)
		for rank := range ops {
			ops[rank] = Sendrecv{Peers: []int{(rank + size - 1) % size, (rank + 1) % size}, Bytes: bytes}
		}
		return ops
	}
	allreduce := func(bytes float64) []Op {
		ops := make([]Op, size)
		for rank := range ops {
			ops[rank] = Allreduce{Bytes: bytes}
		}
		return ops
	}
	m := Model(func(rank int, cycles, bytes float64) units.Seconds {
		return units.Seconds(cycles * (1 + 0.37*float64(rank)))
	})
	free := Network{Latency: 0, Bandwidth: 5e9}
	for _, tc := range []struct {
		name    string
		tables  [][]Op
		net     Network
		ordered bool
	}{
		{"NaN compute time", [][]Op{compute(map[int]float64{3: nan}), ring(4096), allreduce(8)}, DefaultNetwork, false},
		{"-0 and +Inf compute times", [][]Op{compute(map[int]float64{0: negZero, 5: negZero, 9: inf}), ring(4096), allreduce(8)}, DefaultNetwork, true},
		{"negative latency", [][]Op{compute(nil), ring(4096), allreduce(8)}, Network{Latency: -1e-3, Bandwidth: 5e9}, false},
		{"NaN message size", [][]Op{compute(nil), ring(nan), allreduce(8)}, DefaultNetwork, false},
		{"zero latency, zero-byte messages", [][]Op{compute(map[int]float64{2: negZero, 7: 0}), ring(0), allreduce(0)}, free, true},
	} {
		// Compute and exchange alternate, with a collective every third
		// exchange, over enough rounds for the special values to reach
		// every rank.
		var schedule []int
		for i := 0; i < 3*size; i++ {
			schedule = append(schedule, 0, 1)
			if i%3 == 2 {
				schedule = append(schedule, 2)
			}
		}
		p := tableProgram{tables: tc.tables, schedule: schedule}
		if _, _, ordered, err := resolve(p.Tables(), size, 5, m, tc.net, nil); err != nil || ordered != tc.ordered {
			t.Fatalf("%s: resolve reports ordered %v (err %v), want %v", tc.name, ordered, err, tc.ordered)
		}
		want, wantErr := referenceRun(p, size, m, tc.net, nil, nil)
		got, gotErr := RunFaulty(p, size, m, tc.net, nil, nil)
		if msg := compareRuns(got, gotErr, want, wantErr); msg != "" {
			t.Errorf("%s: %s", tc.name, msg)
		}
	}
}

// TestResolveReportsOrderedTimes: resolve's ordered flag is true exactly
// when no resolved compute time, wire time or collective cost is negative
// or NaN, on generated programs that hold both kinds.
func TestResolveReportsOrderedTimes(t *testing.T) {
	seen := map[bool]int{}
	for seed := 0; seed < 3000; seed++ {
		c := genCase(xrand.New(uint64(seed)))
		tabs, _, ordered, err := resolve(c.prog.Tables(), c.size, 2, c.m, c.net, nil)
		if err != nil {
			continue
		}
		bad := func(x units.Seconds) bool { return x < 0 || math.IsNaN(float64(x)) }
		want := true
		for _, tb := range tabs {
			want = want && !bad(tb.cost)
			for _, x := range tb.secs {
				want = want && !bad(x)
			}
		}
		if ordered != want {
			t.Fatalf("seed %d: resolve reports ordered %v, tables say %v", seed, ordered, want)
		}
		seen[ordered]++
	}
	if seen[true] == 0 || seen[false] == 0 {
		t.Fatalf("generated cases cover one side only: %v", seen)
	}
}

// TestSpreadCoversLiveRanksOnly: once a rank dies, its stopped clock is no
// arrival, so survivors that arrive together report no stall.
func TestSpreadCoversLiveRanksOnly(t *testing.T) {
	const size = 3
	p := ringProgram(size, 8, 0.1)
	deadAt := []units.Seconds{-1, -1, 0.5}
	for _, run := range []struct {
		name string
		run  func(Program, int, Model, Network, Probe, *FaultSpec) (Result, error)
	}{{"engine", RunFaulty}, {"reference", referenceRun}} {
		var rounds []collectiveCall
		probe := &collectiveProbe{rounds: &rounds}
		res, err := run.run(p, size, unitModel(), zeroNet(), probe, &FaultSpec{DeadAt: deadAt})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Ranks[2].Dead {
			t.Fatalf("%s: rank 2 survived", run.name)
		}
		var after int
		for _, rd := range rounds {
			if rd.earliest < deadAt[2] {
				continue
			}
			after++
			if rd.straggler == 2 || rd.latest != rd.earliest {
				t.Errorf("%s: round %d (%s) reports straggler %d stalling %v after rank 2 died",
					run.name, rd.round, rd.kind, rd.straggler, rd.latest-rd.earliest)
			}
		}
		if after == 0 {
			t.Fatalf("%s: no rounds after the death", run.name)
		}
	}
}

// collectiveCall is one recorded Probe.Collective call.
type collectiveCall struct {
	round, straggler int
	kind             string
	earliest, latest units.Seconds
}

// collectiveProbe records Collective calls and ignores intervals.
type collectiveProbe struct{ rounds *[]collectiveCall }

func (collectiveProbe) Interval(int, int, ProbePhase, units.Seconds, units.Seconds) {}

func (c *collectiveProbe) Collective(round int, kind string, straggler int, earliest, latest units.Seconds) {
	*c.rounds = append(*c.rounds, collectiveCall{round: round, straggler: straggler, kind: kind, earliest: earliest, latest: latest})
}

// unknownOp is an Op of no kind the engine knows.
type unknownOp struct{}

func (unknownOp) isOp() {}

// TestMalformedTablesRejectedBeforeAnyRound: a table that is not one op
// per rank of rank 0's kind, or that holds a negative compute time or a
// peer outside the communicator, fails the run before its first round —
// even when no round plays it or only a dead rank holds the bad op.
func TestMalformedTablesRejectedBeforeAnyRound(t *testing.T) {
	const size = 2
	ok := []Op{Compute{Cycles: 1}, Compute{Cycles: 2}}
	dead := &FaultSpec{DeadAt: []units.Seconds{-1, 0}}
	for _, tc := range []struct {
		name     string
		bad      []Op
		schedule []int
		fs       *FaultSpec
		want     string
	}{
		{"foreign kind in compute", []Op{Compute{}, Barrier{}}, []int{0, 1}, nil, "SPMD violation in table 1: rank 1 issues simmpi.Barrier"},
		{"foreign kind in sendrecv", []Op{Sendrecv{}, Compute{}}, []int{0, 1}, nil, "SPMD violation in table 1: rank 1 issues simmpi.Compute"},
		{"foreign kind in barrier", []Op{Barrier{}, Allreduce{}}, []int{0, 1}, nil, "SPMD violation in table 1: rank 1 issues simmpi.Allreduce"},
		{"foreign kind in allreduce", []Op{Allreduce{}, Barrier{}}, []int{0, 1}, nil, "SPMD violation in table 1: rank 1 issues simmpi.Barrier"},
		{"unknown op", []Op{unknownOp{}, unknownOp{}}, []int{0, 1}, nil, "table 1: unknown op simmpi.unknownOp"},
		{"nil op", []Op{nil, Compute{}}, []int{0, 1}, nil, "table 1: unknown op <nil>"},
		{"peer below range", []Op{Sendrecv{}, Sendrecv{Peers: []int{0, -1}}}, []int{0, 1}, nil, "rank 1 in table 1 has peer -1 outside [0,2)"},
		{"peer above range", []Op{Sendrecv{Peers: []int{size}}, Sendrecv{}}, []int{0, 1}, nil, "rank 0 in table 1 has peer 2 outside [0,2)"},
		{"negative compute time", []Op{Compute{}, Compute{Cycles: -1}}, []int{0, 1}, nil, "negative compute time -1.000 s at rank 1 in table 1"},
		{"short table", []Op{Compute{}}, []int{0, 1}, nil, "table 1 has 1 ops for 2 ranks"},
		{"never played", []Op{Compute{}, Barrier{}}, []int{0, 0}, nil, "SPMD violation in table 1"},
		{"held by a dead rank", []Op{Compute{}, Barrier{}}, []int{0, 1}, dead, "SPMD violation in table 1"},
	} {
		p := tableProgram{tables: [][]Op{ok, tc.bad}, schedule: tc.schedule}
		log := &probeLog{}
		_, err := RunFaulty(p, size, unitModel(), zeroNet(), log, tc.fs)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
		if log.n != 0 {
			t.Errorf("%s: %d probe calls before the error, want none", tc.name, log.n)
		}
	}
	p := tableProgram{tables: [][]Op{ok}, schedule: []int{0, 1}}
	if _, err := RunFaulty(p, size, unitModel(), zeroNet(), nil, nil); err == nil || !strings.Contains(err.Error(), "round 1 plays table 1 of 1") {
		t.Errorf("schedule past the tables: error %v", err)
	}
}
