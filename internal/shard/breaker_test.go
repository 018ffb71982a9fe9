package shard

import (
	"testing"
	"time"
)

// fakeClock is an injectable breaker clock.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newClock() *fakeClock                   { return &fakeClock{t: time.Unix(1_000_000, 0)} }
func testBreaker(clk *fakeClock, cfg BreakerConfig) *Breaker {
	cfg.Now = clk.now
	return NewBreaker(cfg)
}

func TestBreakerTripsAtThreshold(t *testing.T) {
	clk := newClock()
	b := testBreaker(clk, BreakerConfig{FailThreshold: 3})
	for i := 0; i < 2; i++ {
		b.Failure()
		if !b.Allow() {
			t.Fatalf("refused after %d failures (threshold 3)", i+1)
		}
	}
	b.Failure()
	if b.State() != Open {
		t.Fatalf("state after 3rd failure = %v, want Open", b.State())
	}
	if b.Allow() {
		t.Fatal("Open breaker allowed traffic before its deadline")
	}
}

func TestBreakerSuccessResetsStreak(t *testing.T) {
	clk := newClock()
	b := testBreaker(clk, BreakerConfig{FailThreshold: 3})
	b.Failure()
	b.Failure()
	b.Success()
	b.Failure()
	b.Failure()
	if b.State() != Closed {
		t.Fatal("Success did not reset the failure streak")
	}
}

// TestBreakerHalfOpenSingleProbe: past the deadline exactly one caller is
// admitted; a second is refused until the probe settles.
func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	clk := newClock()
	b := testBreaker(clk, BreakerConfig{FailThreshold: 1, OpenBackoff: time.Second})
	b.Failure()
	if b.Allow() {
		t.Fatal("allowed while Open")
	}
	clk.advance(2 * time.Second) // past deadline even with +25% jitter
	if !b.Allow() {
		t.Fatal("probe refused past the deadline")
	}
	if b.State() != HalfOpen {
		t.Fatalf("state = %v, want HalfOpen", b.State())
	}
	if b.Allow() {
		t.Fatal("second probe admitted while the first is in flight")
	}
	b.Success()
	if b.State() != Closed || !b.Allow() {
		t.Fatal("probe success did not close the breaker")
	}
}

// TestBreakerProbeFailureDoublesBackoff: each failed probe re-opens with
// roughly doubled hold time (within the ±25% jitter envelope).
func TestBreakerProbeFailureDoublesBackoff(t *testing.T) {
	clk := newClock()
	b := testBreaker(clk, BreakerConfig{FailThreshold: 1, OpenBackoff: time.Second, MaxBackoff: time.Minute})
	b.Failure() // open #1: hold in [0.75s, 1.25s]
	clk.advance(1300 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("probe refused past first deadline")
	}
	b.Failure() // open #2: hold in [1.5s, 2.5s]
	clk.advance(1400 * time.Millisecond)
	if b.Allow() {
		t.Fatal("second Open honored the first backoff; should have doubled")
	}
	clk.advance(1200 * time.Millisecond) // total 2.6s > 2.5s max jittered
	if !b.Allow() {
		t.Fatal("probe refused past doubled deadline")
	}
}

func TestBreakerBackoffCapped(t *testing.T) {
	clk := newClock()
	b := testBreaker(clk, BreakerConfig{FailThreshold: 1, OpenBackoff: time.Second, MaxBackoff: 4 * time.Second})
	for i := 0; i < 10; i++ {
		b.Failure()
		clk.advance(6 * time.Second) // > 4s * 1.25 jitter: always past deadline
		if !b.Allow() {
			t.Fatalf("round %d: probe refused past the capped deadline", i)
		}
	}
}

func TestBreakerFailureWhileOpenIsNoop(t *testing.T) {
	clk := newClock()
	b := testBreaker(clk, BreakerConfig{FailThreshold: 1, OpenBackoff: time.Second})
	b.Failure()
	deadline := b.until
	b.Failure() // straggler from before the trip
	if b.until != deadline {
		t.Fatal("straggler failure extended the Open deadline")
	}
}
