package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"net/http"
	"net/http/httptest"
	"slices"
	"time"

	"varpower/internal/cluster"
	"varpower/internal/service"
)

// probeStream is how many stream ops the traced run replays in process.
const probeStream = 1000

// servedRun is one served workload's state.
type servedRun struct {
	name      string
	cfg       runConfig
	p         *plan
	ref       http.Handler // in-process reference service, daemon configuration
	refBodies [][]byte     // by key
	hashSeed  maphash.Seed
	echo      *generator // sends to the reference server

	// Per boot.
	ep    endpoints
	g     *generator
	owner []string // routed: the shard that answered each key at priming
	// Every window of the boot, with timings relative to t0: churn's
	// invalidation check follows generations across windows.
	t0      time.Time
	history windowRun

	// Measured slices, over all boots. Per pair of adjacent slices, the
	// daemon's open-loop solve-latency quantiles, the reference server's on
	// the same requests, and their ratios; a run reports the median over its
	// pairs, so a slow spell of the host that spans a few pairs does not
	// move it.
	p50s, p90s, echoP50s, echoP90s, p50x, p90x []float64
	// Per closed-loop pair, ops per second on the daemon and on the
	// reference server, and the daemon's as a share of the reference's.
	tput, echoTput, tputx      []float64
	solves, writes, svc, lates []float64
	solve, pmt                 service.CacheStats
	busy                       float64
}

// opRec is what the checks keep of one response. Each generator goroutine
// writes only the records of the ops it sent.
type opRec struct {
	failed    bool
	detail    string
	disp      string // X-Varpower-Cache
	match     bool   // body equals the reference body of the op's key
	hash      uint64
	budgetErr string
	sample    []byte // retained body, checked against the reference after the window
	jobID     string
}

// refBody answers req from the in-process reference service.
func (s *servedRun) refBody(req service.SolveRequest) ([]byte, error) {
	rw := httptest.NewRecorder()
	o := solveOp(-1, req)
	s.ref.ServeHTTP(rw, newRequest(&o, ""))
	if rw.Code != http.StatusOK {
		return nil, fmt.Errorf("reference %s: HTTP %d: %s", o.body, rw.Code, rw.Body.Bytes())
	}
	return rw.Body.Bytes(), nil
}

func runServed(ctx context.Context, name string, cfg runConfig, res *result) error {
	caps, err := newCapacities()
	if err != nil {
		return err
	}
	p, err := newPlan(name, cfg.seed, caps)
	if err != nil {
		return err
	}
	// The reference is a separate in-process service with the daemon's
	// configuration: same answers, no shared cache.
	refSvc, err := service.New(daemonConfig())
	if err != nil {
		return err
	}
	defer drain(ctx, refSvc)
	s := &servedRun{name: name, cfg: cfg, p: p, ref: refSvc.Handler(), hashSeed: maphash.MakeSeed()}
	var sizes []float64
	for _, req := range p.keys {
		b, err := s.refBody(req)
		if err != nil {
			return err
		}
		if err := checkBudget(b); err != nil {
			res.check("reference bodies keep their budgets", false, "%v", err)
		}
		s.refBodies = append(s.refBodies, bytes.Clone(b))
		sizes = append(sizes, float64(len(b)))
	}
	for _, req := range p.warm {
		b, err := s.refBody(req)
		if err != nil {
			return err
		}
		sizes = append(sizes, float64(len(b)))
	}

	// The reference server answers with a body of the workload's median
	// size, for the whole run.
	echo := cfg.newReference(int(median(sizes)))
	echoEP, err := echo.start(ctx)
	defer echo.stop()
	if err != nil {
		return fmt.Errorf("reference server: %w", err)
	}
	s.echo = newGenerator(echoEP.front)
	defer s.echo.close()

	window := secondsDur(cfg.seconds)
	if cfg.trace {
		window /= 2 // the other half is the traced window
	}
	perSlice := p.wholePeriods(int(p.rate * cfg.slice.Seconds()))
	sliceDur := secondsDur(float64(perSlice) / p.rate)
	rounds := max(1, int(window/time.Duration(cfg.boots)/(2*sliceDur)))
	var setup []float64
	var traced windowRun
	tr := newRecorder()
	// The boots that are only timed come between the measured ones, so the
	// set-up samples spread over the whole run.
	every := max(cfg.setupBoots/cfg.boots, 1)
	for i := 0; i < cfg.setupBoots; i++ {
		// Set-up is timed from the exec of every process of the topology
		// until all answer /healthz 200.
		topo := cfg.newTopology(p.routed)
		t0 := time.Now()
		ep, err := topo.start(ctx)
		if err == nil {
			setup = append(setup, time.Since(t0).Seconds())
		}
		if m := i / every; err == nil && i%every == 0 && m < cfg.boots {
			err = s.serve(ctx, ep, rounds, perSlice, res)
			if err == nil && cfg.trace && m == cfg.boots-1 {
				traced, err = s.traced(ctx, cfg.boots*rounds*perSlice, tr, res)
			}
			s.g.close()
		}
		topo.stop()
		if err != nil {
			return fmt.Errorf("boot %d: %w", i+1, err)
		}
	}
	res.set("setup_s", median(setup), "s", len(setup))
	res.set("p50_vs_ref", median(s.p50x), "x", len(s.p50x))
	res.set("p90_vs_ref", median(s.p90x), "x", len(s.p90x))
	res.set("throughput_vs_ref", median(s.tputx), "x", len(s.tputx))
	res.set("throughput_per_s", median(s.tput), "1/s", len(s.tput))
	res.set("reference.throughput_per_s", median(s.echoTput), "1/s", len(s.echoTput))
	untraced := median(s.p50s)
	res.set("p50_ms", untraced, "ms", len(s.solves))
	res.set("p90_ms", median(s.p90s), "ms", len(s.solves))
	res.set("reference.p50_ms", median(s.echoP50s), "ms", len(s.solves))
	res.set("reference.p90_ms", median(s.echoP90s), "ms", len(s.solves))
	sorted := sortedCopy(s.solves)
	// Tails are reported, not gated, each with the count beyond it — and
	// only when at least ten samples lie beyond it.
	for _, q := range []struct {
		name string
		p    float64
	}{{"p99_ms", 0.99}, {"p999_ms", 0.999}} {
		t := tailAt(sorted, q.p)
		if !t.Supported() {
			res.notes = append(res.notes, fmt.Sprintf("%s not reported: %d of %d samples beyond it", q.name, t.Beyond, t.Samples))
			continue
		}
		res.set(q.name, t.Value, "ms", t.Samples)
		res.set(q.name+"_beyond", float64(t.Beyond), "count", t.Samples)
	}
	res.set("service.svc_p50_ms", median(s.svc), "ms", len(s.svc))
	if len(s.writes) > 0 {
		res.set("write_p50_ms", median(s.writes), "ms", len(s.writes))
	}
	setLateness(res, s.lates, len(s.lates))
	setCacheRatios(res, s.solve, s.pmt)
	res.set("service.busy_s", s.busy, "s", int(s.solve.Hits+s.solve.Misses+s.solve.Coalesced))
	if !cfg.trace {
		return nil
	}

	tracedP50 := median(latencies(traced, opSolve))
	res.set("trace.p50_ms", tracedP50, "ms", len(traced.ops))
	res.set("trace.overhead_pct", 100*(tracedP50-untraced)/untraced, "%", len(traced.ops))

	return s.traceLayers(ctx, caps, traced, tracedP50, tr, res)
}

// traceLayers replays the stream's start through each layer in process and
// splits the traced p50 over the blocking path: generator lateness, one
// loopback round trip, the handler — and on the routed path the hop and a
// second round trip.
func (s *servedRun) traceLayers(ctx context.Context, caps capacities, traced windowRun, tracedP50 float64, tr *recorder, res *result) error {
	in := probeInput{cfg: daemonConfig()}
	for _, spec := range cluster.AllPresets() {
		in.systems = append(in.systems, spec.Name)
	}
	for _, req := range append(append([]service.SolveRequest{}, s.p.keys...), s.p.warm...) {
		in.prime = append(in.prime, solveOp(-1, req))
	}
	replay, err := newPlan(s.name, s.cfg.seed, caps) // a fresh plan restarts the stream
	if err != nil {
		return err
	}
	in.ops, _ = replay.take(probeStream)
	var recal [][]int
	for _, o := range in.ops {
		switch {
		case o.kind == opRecal:
			recal = append(recal, o.recal.Modules)
		case o.kind == opSolve && len(in.hetero) < probeHetero:
			req := o.solve
			if req.System != hybridPreset {
				req.BudgetWatts = caps.budget(hybridPreset, req.BudgetWatts/caps[req.System])
				req.System, req.Seed = hybridPreset, 0
			}
			in.hetero = append(in.hetero, solveOp(-1, req))
		}
	}
	if _, _, err := runProbes(ctx, in, recal, true, tr, res); err != nil {
		return err
	}
	spans := tr.snapshot()
	self := selfTimes(spans)
	transport, _ := selfP50(spans, self, "transport.roundtrip", "t-")
	handler, _ := selfP50(spans, self, "service.handler", "h-")
	blocking := []part{{"loadgen.late", median(lateMS(traced.tims))}, {"transport.roundtrip", transport}}
	if s.p.routed {
		hop, _ := selfP50(spans, self, "shard.router", "r-")
		blocking = append(blocking, part{"shard.router", hop}, part{"transport.roundtrip", transport})
	}
	blocking = append(blocking, part{"service.handler", handler})
	return finishTrace(s.cfg, res, spans, "c-", tracedP50, blocking)
}

// serve runs one boot's share. After priming and a warm-up — half a slice
// on the daemon and the same on the reference server, checked but untimed,
// so connections, goroutine stacks and the heap are in their steady state —
// it measures rounds, each of four slices: n ops open-loop on the daemon,
// the same ops on the same schedule on the reference server, then the
// stream's next n ops closed-loop on the daemon and the same again on the
// reference server.
func (s *servedRun) serve(ctx context.Context, ep endpoints, rounds, n int, res *result) error {
	s.ep, s.g, s.owner, s.history, s.t0 = ep, newGenerator(ep.front), nil, windowRun{}, time.Now()
	if err := s.prime(ctx, res); err != nil {
		return err
	}
	warm := s.window(ctx, s.p.wholePeriods(n/2), false, nil, "")
	s.account(res, warm, "warm-up ")
	if _, err := s.paired(ctx, warm, res); err != nil {
		return err
	}
	before, err := scrape(ctx, ep.metrics)
	if err != nil {
		return err
	}
	for r := 0; r < rounds; r++ {
		w := s.window(ctx, n, false, nil, "")
		s.account(res, w, "")
		echo, err := s.paired(ctx, w, res)
		if err != nil {
			return err
		}
		solves, echoes := sortedCopy(latencies(w, opSolve)), sortedCopy(latencies(echo, opSolve))
		p50, p90 := quantile(solves, 0.5), quantile(solves, 0.9)
		e50, e90 := quantile(echoes, 0.5), quantile(echoes, 0.9)
		s.p50s, s.p90s, s.echoP50s, s.echoP90s = append(s.p50s, p50), append(s.p90s, p90), append(s.echoP50s, e50), append(s.echoP90s, e90)
		s.p50x, s.p90x = append(s.p50x, p50/e50), append(s.p90x, p90/e90)
		s.solves = append(s.solves, solves...)
		s.writes = append(s.writes, append(latencies(w, opRecal), latencies(w, opJob)...)...)
		s.lates = append(s.lates, lateMS(w.tims)...)
		for i := range w.ops {
			if w.ops[i].kind == opSolve && !w.recs[i].failed {
				s.svc = append(s.svc, ms(w.tims[i].end-w.tims[i].send))
			}
		}

		w = s.window(ctx, n, true, nil, "")
		s.account(res, w, "")
		if echo, err = s.paired(ctx, w, res); err != nil {
			return err
		}
		took, echoTook := elapsed(w.tims).Seconds(), elapsed(echo.tims).Seconds()
		s.tput, s.echoTput = append(s.tput, float64(len(w.ops))/took), append(s.echoTput, float64(len(w.ops))/echoTook)
		s.tputx = append(s.tputx, echoTook/took)
	}
	after, err := scrape(ctx, ep.metrics)
	if err != nil {
		return err
	}
	solve, pmt := after.sub(before)
	s.solve, s.pmt = addStats(s.solve, solve), addStats(s.pmt, pmt)
	s.busy += after.solveBusy - before.solveBusy

	return s.checkRouted(ctx, res)
}

// paired finishes a daemon window's checks — its queued jobs complete
// first, so the reference slice runs beside an otherwise idle daemon — and
// then sends the same ops on the same schedule to the reference server.
func (s *servedRun) paired(ctx context.Context, w windowRun, res *result) (windowRun, error) {
	if err := s.finish(ctx, w, res); err != nil {
		return windowRun{}, err
	}
	due := make([]time.Duration, len(w.tims))
	for i, t := range w.tims {
		due[i] = t.due
	}
	failed := make([]error, len(w.ops))
	e := windowRun{origin: time.Now().Add(5 * time.Millisecond), ops: w.ops, recs: make([]opRec, len(w.ops))}
	e.tims = s.echo.window(ctx, e.origin, w.ops, due, nil, "", func(i int, r reply) {
		if r.err == nil && r.status != http.StatusOK {
			r.err = fmt.Errorf("HTTP %d", r.status)
		}
		failed[i] = r.err
	})
	for _, err := range failed {
		if err != nil {
			return windowRun{}, fmt.Errorf("reference server: %w", err)
		}
	}
	return e, nil
}

// elapsed is the span of a window from its first send to its last answer.
func elapsed(tims []timing) time.Duration {
	if len(tims) == 0 {
		return 0
	}
	first, last := tims[0].send, tims[0].end
	for _, t := range tims {
		first, last = min(first, t.send), max(last, t.end)
	}
	return last - first
}

// traced runs the traced window on the current boot: the stream continues
// with an X-Request-Id and a client span per request.
func (s *servedRun) traced(ctx context.Context, n int, tr *recorder, res *result) (windowRun, error) {
	w := s.window(ctx, n, false, tr, "w-")
	s.account(res, w, "traced ")
	return w, s.finish(ctx, w, res)
}

// prime sends every key (and the workload's warming requests) once before
// the clock starts; every key's body must equal the reference's.
func (s *servedRun) prime(ctx context.Context, res *result) error {
	var buf bytes.Buffer
	bad := 0
	for k, req := range s.p.keys {
		o := solveOp(k, req)
		r := s.g.send(ctx, &o, "", &buf)
		if r.err != nil || r.status != http.StatusOK {
			return fmt.Errorf("prime %s: HTTP %d: %v %.200s", o.body, r.status, r.err, r.body)
		}
		if !bytes.Equal(r.body, s.refBodies[k]) {
			bad++
		}
		s.owner = append(s.owner, r.header.Get("X-Varpower-Shard"))
	}
	res.check("primed bodies equal the in-process reference", bad == 0, "%d of %d keys differ", bad, len(s.p.keys))
	for _, req := range s.p.warm {
		o := solveOp(-1, req)
		if r := s.g.send(ctx, &o, "", &buf); r.err != nil || r.status != http.StatusOK {
			return fmt.Errorf("warm %s: HTTP %d: %v %.200s", o.body, r.status, r.err, r.body)
		}
	}
	return nil
}

// windowRun is one open-loop window's ops and what came back.
type windowRun struct {
	origin time.Time
	ops    []op
	tims   []timing
	recs   []opRec
}

// window sends the stream's next n ops, checking each reply: open-loop on
// the stream's schedule or, closed, back to back from every worker. A
// closed window leaves out the stream's jobs: queued at that pace they
// would overflow the daemon's job queue.
func (s *servedRun) window(ctx context.Context, n int, closed bool, tr *recorder, idPrefix string) windowRun {
	ops, due := s.p.take(n)
	if closed {
		ops = slices.DeleteFunc(ops, func(o op) bool { return o.kind == opJob })
		due = make([]time.Duration, len(ops))
	}
	w := windowRun{origin: time.Now().Add(5 * time.Millisecond), ops: ops, recs: make([]opRec, len(ops))}
	w.tims = s.g.window(ctx, w.origin, ops, due, tr, idPrefix, s.onReply(ops, w.recs))
	return w
}

// onReply returns the per-response check run on the generator goroutine:
// cheap byte comparisons only, so it never holds the schedule back.
func (s *servedRun) onReply(ops []op, recs []opRec) func(int, reply) {
	return func(i int, r reply) {
		o, rec := &ops[i], &recs[i]
		switch {
		case r.err != nil:
			rec.failed, rec.detail = true, r.err.Error()
			return
		case r.status != o.wantStatus():
			rec.failed, rec.detail = true, fmt.Sprintf("HTTP %d: %.200s", r.status, r.body)
			return
		}
		switch o.kind {
		case opSolve:
			rec.disp = r.header.Get("X-Varpower-Cache")
			if o.key >= 0 {
				rec.match = bytes.Equal(r.body, s.refBodies[o.key])
				rec.hash = maphash.Bytes(s.hashSeed, r.body)
			} else if i%64 == 0 {
				rec.sample = bytes.Clone(r.body)
			}
			if err := checkBudget(r.body); err != nil {
				rec.budgetErr = err.Error()
			}
		case opJob:
			var st service.JobStatus
			if err := json.Unmarshal(r.body, &st); err != nil || st.ID == "" {
				rec.failed, rec.detail = true, fmt.Sprintf("job status %.200s", r.body)
			}
			rec.jobID = st.ID
		}
	}
}

// account adds a window's counts to res and runs the checks that need only
// its records.
func (s *servedRun) account(res *result, w windowRun, label string) {
	shift := w.origin.Sub(s.t0)
	for _, t := range w.tims {
		s.history.tims = append(s.history.tims, timing{t.due + shift, t.send + shift, t.end + shift})
	}
	s.history.ops = append(s.history.ops, w.ops...)
	s.history.recs = append(s.history.recs, w.recs...)
	failed, budgetBad, notHit, notMiss, mismatch := 0, 0, 0, 0, 0
	firstFailure := ""
	for i, o := range w.ops {
		rec := &w.recs[i]
		switch {
		case rec.failed:
			if failed == 0 {
				firstFailure = fmt.Sprintf("%s %s: %s", o.path(), o.body, rec.detail)
			}
			failed++
			continue
		case o.kind != opSolve:
			continue
		}
		if rec.budgetErr != "" {
			budgetBad++
		}
		if rec.disp != "hit" {
			notHit++
		}
		if rec.disp != "miss" {
			notMiss++
		}
		if o.key >= 0 && !rec.match {
			mismatch++
		}
	}
	res.Attempted += len(w.ops)
	res.Failed += failed
	res.check(label+"requests all succeeded", failed == 0, "%d of %d failed; first: %s", failed, len(w.ops), firstFailure)
	res.check(label+"feasible solves stay within their budget", budgetBad == 0, "%d bodies over budget", budgetBad)
	switch s.name {
	case "hot-direct", "hot-routed":
		res.check(label+"every hot solve is a cache hit with the reference body", notHit == 0 && mismatch == 0,
			"%d not hits, %d bodies differ", notHit, mismatch)
	case "sweep-mixed":
		res.check(label+"every unseen budget misses the solve cache", notMiss == 0, "%d answered from cache", notMiss)
	case "churn":
		err := churnCheck(s.history.ops, s.history.tims, s.history.recs)
		res.check(label+"recalibration invalidates each key exactly once per generation", err == nil, "%v", err)
	}
}

// latencies returns the latency in ms of every successful op of the kind.
func latencies(w windowRun, kind opKind) []float64 {
	var out []float64
	for i, o := range w.ops {
		if o.kind == kind && !w.recs[i].failed {
			out = append(out, ms(w.tims[i].latency()))
		}
	}
	return out
}

// finish runs the checks that need the daemon again after a window: queued
// jobs must all complete, and sampled sweep bodies must equal the
// reference.
func (s *servedRun) finish(ctx context.Context, w windowRun, res *result) error {
	ops, recs := w.ops, w.recs
	jobsBad, jobs := 0, 0
	detail := ""
	for i := range ops {
		if recs[i].jobID == "" {
			continue
		}
		jobs++
		st, err := waitJob(ctx, s.g, recs[i].jobID)
		if err != nil {
			return err
		}
		if st.State != service.JobDone {
			jobsBad++
			detail = fmt.Sprintf("job %s ended %s: %s", st.ID, st.State, st.Error)
		}
	}
	if jobs > 0 {
		res.check("every job ends done", jobsBad == 0, "%d of %d not done; %s", jobsBad, jobs, detail)
	}
	sampled, differ := 0, 0
	for i := range ops {
		if recs[i].sample == nil {
			continue
		}
		want, err := s.refBody(ops[i].solve)
		if err != nil {
			return err
		}
		sampled++
		if !bytes.Equal(recs[i].sample, want) {
			differ++
		}
	}
	if sampled > 0 {
		res.check("sampled bodies equal the in-process reference", differ == 0, "%d of %d differ", differ, sampled)
	}
	return nil
}

// checkRouted requires routed bodies to equal what the owning shard
// answers directly.
func (s *servedRun) checkRouted(ctx context.Context, res *result) error {
	if s.ep.shards == nil {
		return nil
	}
	direct := newGenerator("")
	defer direct.close()
	var buf bytes.Buffer
	differ := 0
	for k, req := range s.p.keys {
		direct.base = s.ep.shards[s.owner[k]]
		o := solveOp(k, req)
		r := direct.send(ctx, &o, "", &buf)
		if r.err != nil || r.status != http.StatusOK || !bytes.Equal(r.body, s.refBodies[k]) {
			differ++
		}
	}
	res.check("routed bodies equal the owning shard's direct answers", differ == 0, "%d of %d keys differ", differ, len(s.p.keys))
	return nil
}

// waitJob polls a job until it leaves the queue.
func waitJob(ctx context.Context, g *generator, id string) (*service.JobStatus, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		code, body, err := g.get(ctx, "/v1/jobs/"+id)
		if err != nil {
			return nil, err
		}
		var st service.JobStatus
		if code != http.StatusOK || json.Unmarshal(body, &st) != nil {
			return nil, fmt.Errorf("job %s: HTTP %d: %.200s", id, code, body)
		}
		if st.State == service.JobDone || st.State == service.JobFailed {
			return &st, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("job %s still %s after 60s", id, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// lateMS is each op's lateness in milliseconds.
func lateMS(tims []timing) []float64 {
	out := make([]float64, len(tims))
	for i, t := range tims {
		out[i] = ms(t.late())
	}
	return out
}

// setLateness reports how far behind schedule the generator issued work.
func setLateness(res *result, late []float64, sent int) {
	sorted := sortedCopy(late)
	res.set("loadgen.late_p50_ms", quantile(sorted, 0.5), "ms", len(sorted))
	res.set("loadgen.late_p99_ms", quantile(sorted, 0.99), "ms", len(sorted))
	res.set("loadgen.sent", float64(sent), "count", sent)
}

// setCacheRatios reports each cache's hit share with its lookup count.
func setCacheRatios(res *result, solve, pmt service.CacheStats) {
	ratio := func(c service.CacheStats) (float64, int) {
		n := c.Hits + c.Misses + c.Coalesced
		if n == 0 {
			return 0, 0
		}
		return float64(c.Hits) / float64(n), int(n)
	}
	r, n := ratio(solve)
	res.set("cache.solve_hit_ratio", r, "ratio", n)
	res.set("cache.solve_coalesced", float64(solve.Coalesced), "count", n)
	r, n = ratio(pmt)
	res.set("cache.pmt_hit_ratio", r, "ratio", n)
}

// counters are the daemon-side solve-path counters read from /v1/metrics.
type counters struct {
	solve, pmt service.CacheStats
	solveBusy  float64 // Σ seconds handling /v1/solve
}

func (a counters) sub(b counters) (solve, pmt service.CacheStats) {
	return diffStats(a.solve, b.solve), diffStats(a.pmt, b.pmt)
}

// scrape sums the counters over every process that serves solves.
func scrape(ctx context.Context, bases []string) (counters, error) {
	var c counters
	for _, base := range bases {
		g := newGenerator(base)
		code, body, err := g.get(ctx, "/v1/metrics?format=json")
		g.close()
		if err != nil {
			return c, err
		}
		if code != http.StatusOK {
			return c, fmt.Errorf("%s/v1/metrics: HTTP %d", base, code)
		}
		var doc struct {
			Metrics []struct {
				Name   string `json:"name"`
				Series []struct {
					Labels map[string]string `json:"labels"`
					Value  float64           `json:"value"`
					Sum    float64           `json:"sum"`
				} `json:"series"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			return c, fmt.Errorf("%s/v1/metrics: %w", base, err)
		}
		for _, f := range doc.Metrics {
			for _, s := range f.Series {
				st := &c.solve
				if s.Labels["cache"] == "pmt" {
					st = &c.pmt
				}
				v := int64(s.Value)
				switch f.Name {
				case "varpower_solve_cache_hits_total":
					st.Hits += v
				case "varpower_solve_cache_misses_total":
					st.Misses += v
				case "varpower_solve_cache_coalesced_total":
					st.Coalesced += v
				case "varpower_http_request_seconds":
					if s.Labels["route"] == "/v1/solve" {
						c.solveBusy += s.Sum
					}
				}
			}
		}
	}
	return c, nil
}
