package simmpi

import "varpower/internal/units"

// Probe observes a DES execution interval by interval — the hook the
// flight recorder (internal/flight) uses to capture per-rank phase
// timelines and per-round straggler information without the engine knowing
// anything about recording.
//
// Both engines invoke a probe only from their serial event loop, in a
// deterministic order for a given program and model, so implementations
// need not be concurrency-safe and recorded output is reproducible at any
// caller fan-out. Probes must treat every argument as read-only; they
// cannot influence the simulation.
type Probe interface {
	// Interval reports that rank spent [start, end) in the given phase
	// during round (the SPMD round for the lockstep engine, the rank's op
	// index for the async engine). Zero-length intervals are not reported.
	Interval(rank, round int, phase ProbePhase, start, end units.Seconds)

	// Collective reports a communication round's arrival spread over the
	// ranks alive in it: the straggler rank arrived last (lowest rank wins
	// ties) at time latest, the fastest live participant at earliest; a
	// dead rank's stopped clock is not an arrival. Emitted by the lockstep
	// engine for every Sendrecv, Barrier and Allreduce round that has a
	// live rank; kind is "sendrecv", "barrier" or "allreduce". For Sendrecv
	// rounds the straggler is the round's globally latest arrival — the
	// rank every transitively coupled neighbourhood ultimately waits on.
	Collective(round int, kind string, straggler int, earliest, latest units.Seconds)
}

// ProbePhase classifies a probed interval.
type ProbePhase uint8

// Probed phases.
const (
	// ProbeCompute: local computation.
	ProbeCompute ProbePhase = iota
	// ProbeP2PWait: blocked on a peer in a point-to-point exchange.
	ProbeP2PWait
	// ProbeCollectiveWait: blocked at a barrier/allreduce (or, in the
	// async engine, in a Recv on a reserved collective tag — see
	// CollectiveTagBase).
	ProbeCollectiveWait
	// ProbeXfer: wire time of the rank's messages.
	ProbeXfer
)

// spread returns a communication round's arrival spread over the live
// ranks (all of them when dead is nil): the straggler (argmax, lowest rank
// on ties) and the earliest and latest arrivals — the arguments
// Probe.Collective wants. A dead rank's stopped clock is no arrival. ok is
// false when no rank is live.
func spread(arrive []units.Seconds, dead []bool) (straggler int, earliest, latest units.Seconds, ok bool) {
	for rank, at := range arrive {
		if dead != nil && dead[rank] {
			continue
		}
		if !ok {
			straggler, earliest, latest, ok = rank, at, at, true
			continue
		}
		if at < earliest {
			earliest = at
		}
		if at > latest {
			latest = at
			straggler = rank
		}
	}
	return straggler, earliest, latest, ok
}

// String returns the stable name of the phase.
func (p ProbePhase) String() string {
	switch p {
	case ProbeCompute:
		return "compute"
	case ProbeP2PWait:
		return "p2p-wait"
	case ProbeCollectiveWait:
		return "collective-wait"
	case ProbeXfer:
		return "xfer"
	}
	return "unknown"
}
