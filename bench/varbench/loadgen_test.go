package main

import (
	"testing"
	"time"
)

// fakeClock advances only when told: sleeping jumps to the wake time, and
// the operation under test moves time forward by its service time.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration { return c.t }

func (c *fakeClock) sleepUntil(t time.Duration) {
	if t > c.t {
		c.t = t
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	ms := time.Millisecond
	due := []time.Duration{0, 1 * ms, 2 * ms, 3 * ms, 10 * ms}
	service := []time.Duration{1500 * time.Microsecond, 1500 * time.Microsecond, 1500 * time.Microsecond, 1500 * time.Microsecond, ms}
	clk := &fakeClock{}
	tims := openLoop(due, 1, clk, func(i int) func() {
		clk.t += service[i]
		return func() { clk.t += 10 * time.Microsecond } // checking a reply is not its latency
	})
	// One worker, each op taking 1.5 ms (and 10 µs of checking after it)
	// against a 1 ms schedule: the generator falls further behind with every
	// op, and each op's latency includes the wait the stall imposed on it.
	// The last op is on time.
	us := time.Microsecond
	want := []struct{ late, latency time.Duration }{
		{0, 1500 * us},
		{510 * us, 2010 * us},
		{1020 * us, 2520 * us},
		{1530 * us, 3030 * us},
		{0, ms},
	}
	for i, w := range want {
		if tims[i].late() != w.late || tims[i].latency() != w.latency {
			t.Errorf("op %d: late %v latency %v, want %v and %v", i, tims[i].late(), tims[i].latency(), w.late, w.latency)
		}
	}
}

func TestOpenLoopUsesEveryWorkerOnce(t *testing.T) {
	due := make([]time.Duration, 1000)
	done := make([]int, len(due))
	tims := openLoop(due, 4, wallClock{origin: time.Now()}, func(i int) func() { done[i]++; return nil })
	for i, n := range done {
		if n != 1 || tims[i].end < tims[i].send {
			t.Fatalf("op %d ran %d times", i, n)
		}
	}
}
