package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// clock abstracts the generator's time so tests can drive it.
type clock interface {
	now() time.Duration // since the schedule's origin
	sleepUntil(t time.Duration)
}

// wallClock is the real clock. Go's timers wake about a millisecond late on
// Linux, which at these rates would make the generator, not the daemon,
// dominate latency; short waits therefore use a precise sleep (sys_*.go).
type wallClock struct{ origin time.Time }

func (c wallClock) now() time.Duration { return time.Since(c.origin) }

func (c wallClock) sleepUntil(t time.Duration) {
	d := t - c.now()
	if d > 2*time.Millisecond {
		time.Sleep(d - 1500*time.Microsecond)
		d = t - c.now()
	}
	if d > 0 {
		preciseSleep(d)
	}
}

// timing is one scheduled operation's timeline, relative to the schedule's
// origin. Latency is end − due: a stall delays every request queued behind
// it, and timing from the due time charges that wait to the system instead
// of hiding it. Lateness (send − due) is how far behind the generator ran.
type timing struct {
	due, send, end time.Duration
}

func (t timing) latency() time.Duration { return t.end - t.due }
func (t timing) late() time.Duration    { return t.send - t.due }

// openLoop runs an open-loop schedule: operation i is due at due[i] whatever
// happened before it. At most workers operations are in flight; a free
// worker takes the next operation in due order, waits for its due time
// unless already late, and calls do(i). The operation ends when do returns;
// the function do returns, if any, runs after that, untimed.
func openLoop(due []time.Duration, workers int, clk clock, do func(i int) func()) []timing {
	out := make([]timing, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				clk.sleepUntil(due[i])
				t := &out[i]
				t.due, t.send = due[i], clk.now()
				after := do(i)
				t.end = clk.now()
				if after != nil {
					after()
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// generator sends a workload's requests to one endpoint with at most nproc
// goroutines and nproc connections.
type generator struct {
	base    string
	client  *http.Client
	workers int
}

func newGenerator(base string) *generator {
	n := runtime.NumCPU()
	tr := &http.Transport{
		MaxConnsPerHost:     n,
		MaxIdleConnsPerHost: n,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &generator{base: base, client: &http.Client{Transport: tr, Timeout: 10 * time.Second}, workers: n}
}

func (g *generator) close() { g.client.CloseIdleConnections() }

// reply is one response as the checks see it. body is only valid during the
// callback it is passed to.
type reply struct {
	status int
	header http.Header
	body   []byte
	err    error
}

// send issues one request and reads the whole body into buf.
func (g *generator) send(ctx context.Context, o *op, reqID string, buf *bytes.Buffer) reply {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.base+o.path(), bytes.NewReader(o.body))
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set("X-Request-Id", reqID)
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return reply{status: resp.StatusCode, err: err}
	}
	return reply{status: resp.StatusCode, header: resp.Header, body: buf.Bytes()}
}

// get fetches a path and returns its body.
func (g *generator) get(ctx context.Context, path string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, g.base+path, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// window runs ops open-loop at their due times after origin (with every due
// time zero, back to back: a closed loop over the workers). onReply runs
// on the worker goroutine after each response is timed and must only touch
// state for op i. With a recorder, every request gets an X-Request-Id and a
// client span.
func (g *generator) window(ctx context.Context, origin time.Time, ops []op, due []time.Duration, tr *recorder, idPrefix string,
	onReply func(i int, r reply)) []timing {
	bufs := sync.Pool{New: func() any { return new(bytes.Buffer) }}
	clk := wallClock{origin: origin}
	return openLoop(due, g.workers, clk, func(i int) func() {
		buf := bufs.Get().(*bytes.Buffer)
		var id string
		var start time.Time
		if tr != nil {
			id = idPrefix + strconv.Itoa(i)
			start = time.Now()
		}
		r := g.send(ctx, &ops[i], id, buf)
		if tr != nil {
			tr.add("client", id, start, time.Now())
		}
		return func() {
			onReply(i, r)
			bufs.Put(buf)
		}
	})
}
