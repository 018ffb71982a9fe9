package core

import (
	"sync"

	"varpower/internal/obs"
)

// ReplicaPool recycles framework replicas across the cells of a sweep.
//
// Sweep engines (the evaluation grid, the overprovisioning curve, the
// resilience matrix, varpowerd's solve path) give every cell a private
// replica so concurrent cells cannot clobber each other's RAPL limits and
// pinned frequencies. Cloning a system allocates its full per-module state;
// at fleet scale that made Framework.Clone the dominant allocation source.
// The pool caps that cost at one live replica per concurrent worker: Put
// resets the replica's system to power-on state (cluster.System.Reset) and
// shelves it for the next Get.
//
// The reuse invariant is bit-identity: a recycled replica must measure
// exactly like a fresh clone. System.Reset guarantees it by rewriting every
// mutable field — MSR registers and fractional-energy accumulators, RAPL
// 64-bit counter extensions, governor pins, listeners — and reapplying the
// base system's control model and fault injector. The determinism suite
// pins this with pooled-vs-fresh equivalence and pool-poisoning tests.
type ReplicaPool struct {
	base *Framework
	pool sync.Pool
}

// NewReplicaPool returns a pool of replicas of base. The base framework
// itself is never handed out.
func NewReplicaPool(base *Framework) *ReplicaPool {
	p := &ReplicaPool{base: base}
	p.pool.New = func() any { return p.base.Clone() }
	return p
}

// Get returns a replica ready to run: a recycled one when available (reset
// at Put time), otherwise a fresh Clone of the base.
func (p *ReplicaPool) Get() *Framework {
	return p.pool.Get().(*Framework)
}

// Put resets fw's system to its power-on state and shelves the replica for
// reuse. fw must have come from Get on this pool and must not be used after
// Put. Any recorder, collector or trace span attached for the borrow is
// detached (Clone never copies them either).
func (p *ReplicaPool) Put(fw *Framework) {
	if fw == nil {
		return
	}
	fw.Recorder = nil
	fw.Attrib = nil
	fw.Tenant, fw.JobID = "", ""
	fw.Trace = obs.Span{}
	fw.Sys.Reset()
	p.pool.Put(fw)
}
