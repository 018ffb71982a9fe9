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
// resets the replica's system to power-on state (cluster.System.Reset),
// undoes what the borrower set on the framework (observers, trace, a
// Workers width) and shelves it for the next Get.
//
// The reuse invariant is bit-identity: a recycled replica must measure
// exactly like a fresh clone. System.Reset guarantees it by rewriting every
// mutable field — MSR registers and fractional-energy accumulators, RAPL
// 64-bit counter extensions, governor pins, listeners — and reapplying the
// base system's control model and fault injector. The determinism suite
// pins this with pooled-vs-fresh equivalence and pool-poisoning tests.
//
// Idle replicas wait in a mutex-guarded free list, not a sync.Pool: a Get
// after a Put always recycles, where a sync.Pool drops its items on a GC
// cycle (and, under the race detector, a random share of Puts). The list
// holds at most as many replicas as were ever borrowed at once, and it
// lives as long as the pool.
type ReplicaPool struct {
	base *Framework
	mu   sync.Mutex
	idle []*Framework
}

// NewReplicaPool returns a pool of replicas of base. The base framework
// itself is never handed out.
func NewReplicaPool(base *Framework) *ReplicaPool {
	return &ReplicaPool{base: base}
}

// Get returns a replica ready to run: a recycled one when available (reset
// at Put time), otherwise a fresh Clone of the base.
func (p *ReplicaPool) Get() *Framework {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		fw := p.idle[n-1]
		p.idle[n-1] = nil
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return fw
	}
	p.mu.Unlock()
	return p.base.Clone()
}

// Put resets fw's system to its power-on state and shelves the replica for
// reuse. fw must have come from Get on this pool and must not be used after
// Put. Any recorder, collector or trace span attached for the borrow is
// detached (Clone never copies them either), and a Workers width set for
// the borrow is restored to the base framework's, so the next borrower
// starts from exactly what Clone would give it. The replica keeps its run
// memory (see Framework), which no result refers to.
func (p *ReplicaPool) Put(fw *Framework) {
	if fw == nil {
		return
	}
	fw.Workers = p.base.Workers
	fw.Recorder = nil
	fw.Attrib = nil
	fw.Tenant, fw.JobID = "", ""
	fw.Trace = obs.Span{}
	fw.Sys.Reset()
	p.mu.Lock()
	p.idle = append(p.idle, fw)
	p.mu.Unlock()
}
