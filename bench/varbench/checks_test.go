package main

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"varpower/internal/service"
)

func TestCheckBudgetReadsRealBodies(t *testing.T) {
	svc, err := service.New(service.Config{Systems: []string{"HA8K"}, Modules: 16})
	if err != nil {
		t.Fatal(err)
	}
	o := solveOp(-1, service.SolveRequest{System: "HA8K", Workload: "MHD", Scheme: "VaPc", BudgetWatts: 1500})
	rw := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rw, newRequest(&o, ""))
	body := rw.Body.String()
	if rw.Code != 200 || !strings.Contains(body, `"feasible":true`) {
		t.Fatalf("HTTP %d: %s", rw.Code, body)
	}
	if err := checkBudget([]byte(body)); err != nil {
		t.Errorf("a served body fails the budget check: %v", err)
	}
	over := strings.Replace(body, `"budget_watts":1500`, `"budget_watts":15`, 1)
	if err := checkBudget([]byte(over)); err == nil {
		t.Error("a feasible body over its budget passed")
	}
	if err := checkBudget([]byte(strings.Replace(over, `"feasible":true`, `"feasible":false`, 1))); err != nil {
		t.Errorf("an infeasible body is not bound by its budget: %v", err)
	}
	if err := checkBudget([]byte(`{"alpha":1}`)); err == nil {
		t.Error("a body without the budget fields passed")
	}
}

func TestChurnCheck(t *testing.T) {
	ms := time.Millisecond
	// solve(at, until, disposition, reference body?, body) and recal(at, until)
	type ev struct {
		recal     bool
		send, end time.Duration
		disp      string
		match     bool
		hash      uint64
	}
	build := func(evs ...ev) ([]op, []timing, []opRec) {
		var ops []op
		var tims []timing
		var recs []opRec
		for _, e := range evs {
			o := op{kind: opSolve, key: 0, system: "HA8K"}
			if e.recal {
				o = op{kind: opRecal, key: -1, system: "HA8K"}
			}
			ops = append(ops, o)
			tims = append(tims, timing{due: e.send, send: e.send, end: e.end})
			recs = append(recs, opRec{disp: e.disp, match: e.match, hash: e.hash})
		}
		return ops, tims, recs
	}
	primed := ev{send: 0, end: 1 * ms, disp: "hit", match: true, hash: 1}
	recal := ev{recal: true, send: 2 * ms, end: 5 * ms}
	for _, c := range []struct {
		name string
		evs  []ev
		want string // substring of the error; empty for none
	}{
		{"clean", []ev{primed, recal, {send: 6 * ms, end: 7 * ms, disp: "miss", hash: 2}, {send: 8 * ms, end: 9 * ms, disp: "hit", hash: 2}}, ""},
		{"no miss after recalibration", []ev{primed, recal, {send: 6 * ms, end: 7 * ms, disp: "hit", hash: 1}}, "0 misses"},
		{"stale hit, miss later", []ev{primed, recal, {send: 6 * ms, end: 7 * ms, disp: "hit", hash: 1}, {send: 8 * ms, end: 9 * ms, disp: "miss", hash: 2}}, "first solve after recalibration"},
		{"two misses in one generation", []ev{primed, recal, {send: 6 * ms, end: 7 * ms, disp: "miss", hash: 2}, {send: 8 * ms, end: 9 * ms, disp: "miss", hash: 2}}, "misses"},
		{"primed body differs", []ev{{send: 0, end: 1 * ms, disp: "hit", hash: 1}}, "before any recalibration"},
		{"solve racing the recalibration took the miss",
			[]ev{primed, recal, {send: 3 * ms, end: 5500 * time.Microsecond, disp: "miss", hash: 2}, {send: 6 * ms, end: 7 * ms, disp: "hit", hash: 2}}, ""},
		{"more bodies than misses", []ev{primed, recal, {send: 6 * ms, end: 7 * ms, disp: "miss", hash: 2}, {send: 8 * ms, end: 9 * ms, disp: "hit", hash: 3}}, "distinct bodies"},
	} {
		err := churnCheck(build(c.evs...))
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: error %v, want one about %q", c.name, err, c.want)
		}
	}
}
