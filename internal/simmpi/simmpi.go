// Package simmpi is a discrete-event simulator for SPMD message-passing
// programs — the substrate that stands in for MPI on the paper's 1,920-rank
// application runs.
//
// Programs are bulk-synchronous SPMD: every rank executes the same sequence
// of operation *kinds* (compute, neighbour exchange, barrier, allreduce),
// though per-rank parameters (work amounts, peer lists) differ. A Program
// is therefore a few distinct per-rank op tables plus a schedule that plays
// one table per round. The engine exploits that structure twice. It
// resolves each table once per run — compute times from the Model (which
// must be pure), wire times and range-checked peer lists, a collective's
// tree cost, the SPMD kind check — and then plays the schedule as plain
// arithmetic over per-rank clocks, all ranks round by round. And it
// resolves each communication round exactly — a rank's Sendrecv completes
// when the slowest participating peer has arrived, a collective completes
// when the slowest rank in the communicator has arrived. This is the
// mechanism behind the paper's central performance observation: frequency
// inhomogeneity hurts unsynchronised codes through per-rank time spread
// (*DGEMM, Figure 2(iii)) and synchronised codes through wait time at
// exchanges (MHD, Figure 3).
//
// RunFaulty plays the schedule in one of two round loops, chosen by its
// inputs. A run with no FaultSpec, no Probe and ordered times — a healthy,
// unrecorded run, such as every grid cell and calibration test run —
// takes a loop that tests no rank or peer for death and calls no probe,
// accumulates each rank's times in flat arrays, and finds a Sendrecv's
// latest peer with integer compares over six-wide peer rows. Any other run
// takes the general loop, which handles rank deaths and reports to the
// probe. Both do the same arithmetic in the same per-rank order, so the
// choice never changes a result or a metric.
//
// Per-rank accounting separates busy time (compute) from wait time (blocked
// on slower peers) and keeps the cumulative time inside Sendrecv calls, so
// experiments can reproduce both the execution-time plots and the
// cumulative MPI_Sendrecv-time plots; a probe sees each message's wire time
// as a ProbeXfer interval.
package simmpi

import (
	"fmt"
	"math"
	"slices"

	"varpower/internal/telemetry"
	"varpower/internal/units"
)

// MPI runtime telemetry — the Vt side of the paper's measurements: how the
// simulated application's time splits into per-rank busy and wait
// (Figures 3 and 5 are distributions over exactly these quantities), and
// how much communication structure each run carried. Busy/wait are in
// *virtual* (simulated) seconds. A run tallies its rounds per kind locally
// and publishes the tallies and its per-rank samples once, when it
// finishes, through the caller's telemetry.Batch, so the round loop
// touches no shared metric.
var (
	mRounds = func() (m [kindAllreduce + 1]*telemetry.Counter) {
		for kind := kindCompute; kind <= kindAllreduce; kind++ {
			m[kind] = telemetry.Default().Counter("varpower_mpi_rounds_total",
				"SPMD operation rounds executed, by operation kind.", telemetry.Labels{"kind": kindNames[kind]})
		}
		return m
	}()
	mRankBusy = telemetry.Default().Histogram("varpower_mpi_rank_busy_seconds",
		"Per-rank compute (busy) time per run, in simulated seconds.", telemetry.SecondBuckets, nil)
	mRankWait = telemetry.Default().Histogram("varpower_mpi_rank_wait_seconds",
		"Per-rank time blocked on slower peers per run, in simulated seconds — the paper's wait-time inhomogeneity signal.",
		telemetry.SecondBuckets, nil)
)

// Op is one operation of a rank's program.
type Op interface{ isOp() }

// Compute models a local computation of Cycles frequency-scaled core cycles
// plus Bytes of memory traffic.
type Compute struct {
	Cycles float64
	Bytes  float64
}

// Sendrecv models a simultaneous exchange with each listed peer (the
// MPI_Sendrecv halo pattern); Bytes is the per-peer message size.
type Sendrecv struct {
	Peers []int
	Bytes float64
}

// Barrier blocks until every rank arrives.
type Barrier struct{}

// Allreduce is a barrier plus a tree reduction of Bytes payload.
type Allreduce struct {
	Bytes float64
}

func (Compute) isOp()   {}
func (Sendrecv) isOp()  {}
func (Barrier) isOp()   {}
func (Allreduce) isOp() {}

// Program is a bulk-synchronous SPMD program given as a few distinct
// per-rank op tables plus a schedule that plays one table per round: an
// iterative code has a compute table and a communication table and
// alternates them, whatever its round count. The engine resolves each table
// once per run and plays the schedule over the resolved tables.
type Program interface {
	// Tables returns the program's distinct op tables: Tables()[i][rank] is
	// rank's operation in every round that plays table i. Each table holds
	// one op per rank, all of rank 0's kind; per-rank parameters (work
	// amounts, peer lists) may differ. A table that breaks this, or names a
	// peer outside [0, size), fails the run before its first round, whether
	// or not a round plays it. The engine reads but never modifies the
	// tables.
	Tables() [][]Op
	// Rounds is the number of operation rounds.
	Rounds() int
	// Round returns the index in Tables of round r's table.
	Round(r int) int
}

// Model converts a rank's abstract work into time on whatever hardware the
// rank is running on: it returns the wall time rank needs for the given
// work, and a negative time fails the run. It must be a pure function of
// (rank, cycles, bytes): the engine calls it once per (table, rank) when it
// resolves a run, not once per round, including for ranks that die before
// the table is played.
type Model func(rank int, cycles, bytes float64) units.Seconds

// Network describes the interconnect cost model: Cost = Latency +
// Bytes/Bandwidth per message, with collectives paying a log2(size) latency
// tree.
type Network struct {
	Latency   units.Seconds
	Bandwidth float64 // bytes/s
}

// DefaultNetwork approximates the FDR InfiniBand fabric of HA8K.
var DefaultNetwork = Network{Latency: 2e-6, Bandwidth: 5e9}

// transfer returns the wire time for one message of the given size.
func (n Network) transfer(bytes float64) units.Seconds {
	if bytes <= 0 {
		return n.Latency
	}
	if n.Bandwidth <= 0 {
		return n.Latency
	}
	return n.Latency + units.Seconds(bytes/n.Bandwidth)
}

// collectiveCost returns the wire time of a size-rank tree collective.
func (n Network) collectiveCost(bytes float64, size int) units.Seconds {
	depth := math.Ceil(math.Log2(float64(size)))
	if depth < 1 {
		depth = 1
	}
	per := n.transfer(bytes)
	return units.Seconds(depth) * per
}

// RankStats is the per-rank timing breakdown of a run.
type RankStats struct {
	// End is the rank's virtual completion time (its death time, for a rank
	// that died).
	End units.Seconds
	// Busy is the time spent computing.
	Busy units.Seconds
	// Wait is the time spent blocked on slower peers (all op kinds). The
	// rest of End is wire time, which a probe sees as ProbeXfer intervals.
	Wait units.Seconds
	// Sendrecv is the cumulative time inside Sendrecv calls (wait + wire) —
	// the quantity on the x-axis of the paper's Figure 3.
	Sendrecv units.Seconds
	// Dead reports that the rank died mid-run (fault injection); its stats
	// cover only the portion it survived.
	Dead bool
}

// Result is the outcome of a simulated run.
type Result struct {
	Ranks []RankStats
	// Elapsed is the application's completion time: the slowest *surviving*
	// rank (the slowest rank overall when none survive).
	Elapsed units.Seconds
}

// DefaultDeadTimeout is the collective/peer timeout survivors pay per
// communication round that involves a dead rank, standing in for an MPI
// fault-tolerance layer's failure detector (ULFM-style revoke+shrink).
const DefaultDeadTimeout = units.Seconds(1.0)

// FaultSpec injects rank deaths into a run. The simulated runtime detects a
// dead peer by timeout rather than deadlocking: a Sendrecv against a dead
// peer completes at the waiter's arrival plus Timeout, and a collective with
// any dead member completes at the slowest survivor's arrival plus Timeout.
// A nil *FaultSpec is the healthy run, bit-identical to a run under a
// spec in which no rank dies.
type FaultSpec struct {
	// DeadAt gives each rank's death time on the run's virtual clock; a
	// negative entry means the rank never dies. A rank dies when its local
	// clock crosses the death time during compute (the op is truncated); a
	// rank blocked in communication at its death time is torn down at the
	// next round boundary.
	DeadAt []units.Seconds
	// Timeout is the failure-detection latency (DefaultDeadTimeout if 0).
	Timeout units.Seconds
}

// faultState is the per-run mutable view of a FaultSpec.
type faultState struct {
	deadAt  []units.Seconds
	dead    []bool
	timeout units.Seconds
}

func newFaultState(fs *FaultSpec, size int) (*faultState, error) {
	if fs == nil {
		return nil, nil
	}
	if fs.DeadAt != nil && len(fs.DeadAt) != size {
		return nil, fmt.Errorf("simmpi: FaultSpec has %d death times for %d ranks", len(fs.DeadAt), size)
	}
	st := &faultState{
		deadAt:  fs.DeadAt,
		dead:    make([]bool, size),
		timeout: fs.Timeout,
	}
	if st.timeout <= 0 {
		st.timeout = DefaultDeadTimeout
	}
	if st.deadAt == nil {
		st.deadAt = make([]units.Seconds, size)
		for i := range st.deadAt {
			st.deadAt[i] = -1
		}
	}
	return st, nil
}

// dies reports whether the rank's death time is set and at or before t.
func (f *faultState) dies(rank int, t units.Seconds) bool {
	return !f.dead[rank] && f.deadAt[rank] >= 0 && t >= f.deadAt[rank]
}

// Scratch is the memory a run allocates and does not return — its
// resolved per-rank times and clocks, its peer rows and its per-rank stats
// — kept for the next run made through it. The zero Scratch is ready to
// use, and a nil *Scratch makes each run allocate its own. A Scratch is
// not safe for concurrent use, and a run's Result.Ranks live in it: they
// are overwritten by its next run.
type Scratch struct {
	secs  []units.Seconds
	peers [][rowWidth]int32
	ranks []RankStats
}

// floats returns n per-rank times, the first zero of them zeroed: the
// clocks and accumulators, which a run reads before it writes; the rest
// are every table's times, which resolve writes before any round reads
// them.
func (s *Scratch) floats(n, zero int) []units.Seconds {
	if s == nil {
		return make([]units.Seconds, n)
	}
	s.secs = slices.Grow(s.secs[:0], n)[:n]
	clear(s.secs[:zero])
	return s.secs
}

// rows returns n peer rows, which resolve fills before any round reads
// them.
func (s *Scratch) rows(n int) [][rowWidth]int32 {
	if s == nil {
		return make([][rowWidth]int32, n)
	}
	s.peers = slices.Grow(s.peers[:0], n)[:n]
	return s.peers
}

// stats returns n zeroed per-rank stats.
func (s *Scratch) stats(n int) []RankStats {
	if s == nil {
		return make([]RankStats, n)
	}
	s.ranks = slices.Grow(s.ranks[:0], n)[:n]
	clear(s.ranks)
	return s.ranks
}

// RunFaulty is (*Scratch).RunFaulty with a run's own memory.
func RunFaulty(p Program, size int, m Model, net Network, probe Probe, fs *FaultSpec, b *telemetry.Batch) (Result, error) {
	var s *Scratch
	return s.RunFaulty(p, size, m, net, probe, fs, b)
}

// RunFaulty executes the program on size ranks against the model and
// network, in s's memory (see Scratch). A non-nil fs injects rank deaths:
// listed ranks die at their appointed times and the run finishes degraded
// instead of deadlocking. A non-nil probe is told every per-rank phase
// interval and every communication round's arrival spread, in a
// deterministic order from the serial round loop; it cannot change the
// result.
//
// A run with neither a fault spec nor a probe, whose resolved times are
// ordered (see resolve), plays its rounds in playHealthy, which tests no
// rank or peer for death and calls no probe; every other run plays them in
// play. Both loops do the same arithmetic in the same per-rank order, so a
// nil spec and a deathless one, probed or not, give bit-identical results
// and metrics.
//
// The run's metric writes — its rounds per kind, those of a failing run
// included, and every rank's busy and wait time, in rank order — go into
// b, which the caller flushes; a nil b publishes them before RunFaulty
// returns. A calibration test run passes its sweep's batch and a measured
// run its measure.Runner's.
func (s *Scratch) RunFaulty(p Program, size int, m Model, net Network, probe Probe, fs *FaultSpec, b *telemetry.Batch) (Result, error) {
	if size < 1 {
		return Result{}, fmt.Errorf("simmpi: size %d < 1", size)
	}
	if size > math.MaxInt32 {
		return Result{}, fmt.Errorf("simmpi: size %d exceeds the int32 peer rows", size)
	}
	fault, err := newFaultState(fs, size)
	if err != nil {
		return Result{}, err
	}
	// Programs have a handful of tables (workload's have one or two), so
	// their descriptors live on the stack: a run needs its result's
	// per-rank stats, its per-rank arrays with the resolved times, and its
	// peer rows, which come from s. The healthy loop's three per-rank
	// accumulators are three more of those arrays; a run that may take
	// that loop gets them before resolve tells whether its times are
	// ordered, and play uses the first two.
	healthy := fault == nil && probe == nil
	nclocks := 2
	if healthy {
		nclocks = 5
	}
	var small [4]table
	tabs, clocks, ordered, err := resolve(p.Tables(), size, nclocks, m, net, small[:0], s)
	if err != nil {
		return Result{}, err
	}
	res := Result{Ranks: s.stats(size)}
	var played [kindAllreduce + 1]int // rounds per kind
	if healthy && ordered {
		played, err = playHealthy(p, tabs, clocks, res.Ranks)
	} else {
		played, err = play(p, tabs, clocks, res.Ranks, probe, fault)
	}
	for kind, n := range played {
		if n > 0 {
			b.Add(mRounds[kind], float64(n))
		}
	}
	if err != nil {
		return Result{}, err
	}
	var maxAny units.Seconds
	for _, st := range res.Ranks {
		if st.End > maxAny {
			maxAny = st.End
		}
		if !st.Dead && st.End > res.Elapsed {
			res.Elapsed = st.End
		}
	}
	b.ObserveEach(mRankBusy, size, func(rank int) float64 { return float64(res.Ranks[rank].Busy) })
	b.ObserveEach(mRankWait, size, func(rank int) float64 { return float64(res.Ranks[rank].Wait) })
	if res.Elapsed == 0 && fault != nil {
		// Every rank died: report the last death as completion.
		res.Elapsed = maxAny
	}
	return res, nil
}

// roundTable returns the resolved table that round r plays.
func roundTable(p Program, tabs []table, r int) (*table, error) {
	i := p.Round(r)
	if i < 0 || i >= len(tabs) {
		return nil, fmt.Errorf("simmpi: round %d plays table %d of %d", r, i, len(tabs))
	}
	return &tabs[i], nil
}

// play is the general round loop: it plays any run, testing every rank
// and peer for death when fault is not nil and reporting to probe when it
// is not nil. clocks holds the per-rank clocks and the arrival scratch.
// play fills in every rank's stats, End and Dead included, and returns
// the rounds it played per kind, those before a failing round included.
func play(p Program, tabs []table, clocks []units.Seconds, ranks []RankStats, probe Probe, fault *faultState) (played [kindAllreduce + 1]int, err error) {
	size := len(ranks)
	t, arrive := clocks[:size], clocks[size:2*size]
	var dead []bool // nil when no rank can die
	if fault != nil {
		dead = fault.dead
	}
	rounds := p.Rounds()
	for r := 0; r < rounds; r++ {
		// Tear down ranks whose death time passed while they were blocked in
		// communication: they stop participating from this round on.
		if fault != nil {
			for rank := 0; rank < size; rank++ {
				if fault.dies(rank, t[rank]) {
					fault.dead[rank] = true
				}
			}
		}
		tb, err := roundTable(p, tabs, r)
		if err != nil {
			return played, err
		}
		played[tb.kind]++
		switch tb.kind {
		case kindCompute:
			for rank := 0; rank < size; rank++ {
				if fault != nil && fault.dead[rank] {
					continue
				}
				dt := tb.secs[rank]
				if fault != nil && fault.dies(rank, t[rank]+dt) {
					// The rank dies mid-compute: truncate the op at the
					// death time and mark the rank down.
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
				ranks[rank].Busy += dt
			}

		case kindSendrecv:
			copy(arrive, t)
			for rank := 0; rank < size; rank++ {
				if fault != nil && fault.dead[rank] {
					continue
				}
				// A padded row's self entries change nothing: rank is
				// live, and its own arrival never beats start.
				start := arrive[rank]
				deadPeer := false
				for _, row := range tb.row(rank) {
					for _, peer := range row {
						if fault != nil && fault.dead[peer] {
							deadPeer = true
							continue
						}
						if arrive[peer] > start {
							start = arrive[peer]
						}
					}
				}
				if deadPeer {
					// A dead peer never arrives; the waiter's failure
					// detector fires Timeout after its own arrival.
					if to := arrive[rank] + fault.timeout; to > start {
						start = to
					}
				}
				xfer := tb.secs[rank]
				end := start + xfer
				st := &ranks[rank]
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

		case kindBarrier, kindAllreduce:
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
				// The collective completes only after the survivors' failure
				// detector gives up on the dead members.
				max += fault.timeout
			}
			cost := tb.cost
			for rank := 0; rank < size; rank++ {
				if fault != nil && fault.dead[rank] {
					continue
				}
				st := &ranks[rank]
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
		}
		if probe != nil && tb.kind != kindCompute {
			if straggler, earliest, latest, ok := spread(arrive, dead); ok {
				probe.Collective(r, kindNames[tb.kind], straggler, earliest, latest)
			}
		}
	}

	// A rank whose death time falls after its last op still counts as dead
	// only if the clock reached it; sweep once more so deaths scheduled
	// before the run's end are all reflected.
	if fault != nil {
		for rank := 0; rank < size; rank++ {
			if fault.dies(rank, t[rank]) {
				fault.dead[rank] = true
			}
		}
	}
	for rank := range ranks {
		ranks[rank].End = t[rank]
		ranks[rank].Dead = fault != nil && fault.dead[rank]
	}
	return played, nil
}

// playHealthy is the round loop of a run that no rank can die in and no
// probe watches, over ordered tables: play's arithmetic in play's per-rank
// order, with no dead-rank, dead-peer or probe test. clocks holds five
// per-rank arrays: the clocks, a second clock buffer, and each rank's busy,
// wait and sendrecv totals, which go into ranks once, at the end. It
// returns the rounds it played per kind, as play does.
//
// Ordered times keep every clock +0, positive or +Inf: clocks start at +0,
// and adding a time that is ≥ 0 and not NaN to such a clock, or taking the
// later of two, gives such a clock again (+0 + −0 is +0). Read as unsigned
// integers, the bit patterns of these values order as the floats do, and
// two of them are equal floats only if their bits are equal. So a Sendrecv
// takes its latest arrival as the integer max of the clocks' bits, which
// compiles to conditional moves instead of the float compare's
// mispredicted branch, and starts at play's clock bit for bit.
func playHealthy(p Program, tabs []table, clocks []units.Seconds, ranks []RankStats) (played [kindAllreduce + 1]int, err error) {
	size := len(ranks)
	t, next := clocks[:size], clocks[size:2*size]
	busy, wait, sendrecv := clocks[2*size:3*size], clocks[3*size:4*size], clocks[4*size:5*size]
	rounds := p.Rounds()
	for r := 0; r < rounds; r++ {
		tb, err := roundTable(p, tabs, r)
		if err != nil {
			return played, err
		}
		played[tb.kind]++
		switch tb.kind {
		case kindCompute:
			for rank, dt := range tb.secs {
				t[rank] += dt
				busy[rank] += dt
			}

		case kindSendrecv:
			// Every rank leaves the round at its own end time, so the round
			// reads arrivals from t and writes ends to next, then swaps the
			// two instead of copying the clocks. The latest arrival is the
			// integer max of the rank's own clock bits and its peer rows',
			// self padding included: any grouping gives the same bits.
			if tb.rows == 1 {
				exchangeSix(t, next, wait, sendrecv, tb.secs, tb.peers)
			} else {
				for rank, at := range t {
					latest := math.Float64bits(float64(at))
					for _, row := range tb.row(rank) {
						for _, peer := range row {
							latest = max(latest, clockBits(t, peer))
						}
					}
					start := units.Seconds(math.Float64frombits(latest))
					end := start + tb.secs[rank]
					wait[rank] += start - at
					sendrecv[rank] += end - at
					next[rank] = end
				}
			}
			t, next = next, t

		case kindBarrier, kindAllreduce:
			var max units.Seconds
			for _, at := range t {
				if at > max {
					max = at
				}
			}
			cost := tb.cost
			for rank, at := range t {
				wait[rank] += max - at
				t[rank] = max + cost
			}
		}
	}
	for rank, end := range t {
		ranks[rank] = RankStats{End: end, Busy: busy[rank], Wait: wait[rank], Sendrecv: sendrecv[rank]}
	}
	return played, nil
}

// exchangeSix is playHealthy's Sendrecv round over a table with one
// six-wide peer row per rank, the shape of every workload program's halo.
// It reads a row as six straight-line loads and takes their max as a
// shallow tree, max(max(self, p0), max(p1, p2), max(p3, p4), p5): four
// maxes deep where a running max over the seven is six. It is a function
// of its own because inline in playHealthy the compiler spilled the slice
// headers and reloaded the table's fields on every rank; other tables'
// rounds stay inline, so a one-rank run's peerless round costs no call.
func exchangeSix(t, next, wait, sendrecv, secs []units.Seconds, rows [][rowWidth]int32) {
	next, wait, sendrecv, secs, rows = next[:len(t)], wait[:len(t)], sendrecv[:len(t)], secs[:len(t)], rows[:len(t)]
	for rank, at := range t {
		row := &rows[rank]
		latest := max(max(math.Float64bits(float64(at)), clockBits(t, row[0])),
			max(clockBits(t, row[1]), clockBits(t, row[2])),
			max(clockBits(t, row[3]), clockBits(t, row[4])), clockBits(t, row[5]))
		start := units.Seconds(math.Float64frombits(latest))
		end := start + secs[rank]
		wait[rank] += start - at
		sendrecv[rank] += end - at
		next[rank] = end
	}
}

// clockBits returns the bits of peer's clock in t.
func clockBits(t []units.Seconds, peer int32) uint64 {
	return math.Float64bits(float64(t[peer]))
}

// opKind is an op's concrete kind. A table's kind is its rank-0 op's, and
// every rank that plays the table must issue that kind.
type opKind uint8

const (
	kindUnknown opKind = iota
	kindCompute
	kindSendrecv
	kindBarrier
	kindAllreduce
)

// kindNames are the kinds' metric labels and Probe.Collective names.
var kindNames = [...]string{
	kindCompute:   "compute",
	kindSendrecv:  "sendrecv",
	kindBarrier:   "barrier",
	kindAllreduce: "allreduce",
}

func kindOf(op Op) opKind {
	switch op.(type) {
	case Compute:
		return kindCompute
	case Sendrecv:
		return kindSendrecv
	case Barrier:
		return kindBarrier
	case Allreduce:
		return kindAllreduce
	}
	return kindUnknown
}

// table is one of a Program's tables resolved for a run: what a round that
// plays it needs, as flat per-rank arrays, so the round loop never calls
// back into the Program or the Model.
type table struct {
	kind opKind
	// secs is each rank's compute time (compute tables) or wire time
	// (sendrecv tables); cost is a barrier's or allreduce's tree cost.
	secs []units.Seconds
	cost units.Seconds
	// A sendrecv table gives every rank the same number of six-wide peer
	// rows, all entries inside [0, size): row(rank) holds rank's peer list
	// in order, padded with rank itself. rows is 1 unless a list is
	// longer than six, or 0 when every list is empty, as in a one-rank
	// halo.
	rows  int
	peers [][rowWidth]int32
}

// rowWidth is a peer row's width: six, a 3-D halo's ±1 neighbours and the
// longest list any workload program has, so every workload table with a
// peer has one row per rank, which exchangeSix reads as six straight-line
// loads. A table with a longer list gives every rank as many rows as that
// list needs, so a star over n ranks costs about n² int32 entries; no
// workload program is shaped like that.
const rowWidth = 6

// row returns rank's peer rows in a sendrecv table.
func (tb *table) row(rank int) [][rowWidth]int32 {
	return tb.peers[rank*tb.rows : (rank+1)*tb.rows]
}

// resolve checks a program's tables for a size-rank run and appends them,
// resolved, to tabs. A table fails the run before any round is played if
// it is not one op per rank, if any rank's op is not rank 0's kind, or if
// it holds a negative compute time or a peer outside the communicator.
// clocks is nclocks zeroed per-rank arrays back to back, for the round
// loop's clocks, scratch and accumulators; they share one array of mem's
// with every table's per-rank times, and all peer rows share another. A row
// lists the rank's peers in order, then repeats the rank itself: a rank
// never arrives after itself, so neither loop's latest arrival changes,
// and play skips a dead rank before it reads the rank's row. ordered
// reports that every resolved compute time, wire time and collective cost
// is ≥ 0 and not NaN, the condition playHealthy's peer scan rests on.
func resolve(tables [][]Op, size, nclocks int, m Model, net Network, tabs []table, mem *Scratch) (_ []table, clocks []units.Seconds, ordered bool, err error) {
	nsecs, nrows, base := nclocks*size, 0, len(tabs)
	for i, ops := range tables {
		if len(ops) != size {
			return nil, nil, false, fmt.Errorf("simmpi: table %d has %d ops for %d ranks", i, len(ops), size)
		}
		kind := kindOf(ops[0])
		if kind == kindUnknown {
			return nil, nil, false, fmt.Errorf("simmpi: table %d: unknown op %T", i, ops[0])
		}
		for rank, op := range ops {
			if kindOf(op) != kind {
				return nil, nil, false, fmt.Errorf("simmpi: SPMD violation in table %d: rank %d issues %T while rank 0 issues %T",
					i, rank, op, ops[0])
			}
		}
		tb := table{kind: kind}
		switch kind {
		case kindCompute:
			nsecs += size
		case kindSendrecv:
			for _, op := range ops {
				tb.rows = max(tb.rows, (len(op.(Sendrecv).Peers)+rowWidth-1)/rowWidth)
			}
			nsecs += size
			nrows += size * tb.rows
		}
		tabs = append(tabs, tb)
	}
	secs := mem.floats(nsecs, nclocks*size)
	var peers [][rowWidth]int32
	if nrows > 0 {
		peers = mem.rows(nrows)
	}
	clocks, secs = secs[:nclocks*size], secs[nclocks*size:]
	ordered = true
	for i, ops := range tables {
		tb := &tabs[base+i]
		switch tb.kind {
		case kindCompute:
			tb.secs, secs = secs[:size], secs[size:]
			for rank, op := range ops {
				c := op.(Compute)
				tb.secs[rank] = m(rank, c.Cycles, c.Bytes)
				if tb.secs[rank] < 0 {
					return nil, nil, false, fmt.Errorf("simmpi: negative compute time %v at rank %d in table %d", tb.secs[rank], rank, i)
				}
				ordered = ordered && tb.secs[rank] >= 0
			}
		case kindSendrecv:
			tb.secs, secs = secs[:size], secs[size:]
			tb.peers, peers = peers[:size*tb.rows], peers[size*tb.rows:]
			for rank, op := range ops {
				sr := op.(Sendrecv)
				row := tb.row(rank)
				for j := 0; j < len(row)*rowWidth; j++ {
					peer := rank
					if j < len(sr.Peers) {
						peer = sr.Peers[j]
					}
					if peer < 0 || peer >= size {
						return nil, nil, false, fmt.Errorf("simmpi: rank %d in table %d has peer %d outside [0,%d)", rank, i, peer, size)
					}
					row[j/rowWidth][j%rowWidth] = int32(peer)
				}
				tb.secs[rank] = net.transfer(sr.Bytes)
				ordered = ordered && tb.secs[rank] >= 0
			}
		case kindBarrier:
			tb.cost = net.collectiveCost(0, size)
		case kindAllreduce:
			tb.cost = net.collectiveCost(ops[0].(Allreduce).Bytes, size)
		}
		ordered = ordered && tb.cost >= 0
	}
	return tabs, clocks, ordered, nil
}
