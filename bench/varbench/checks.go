package main

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"time"
)

// checkBudget enforces the budgeting contract on a rendered solve body:
// whenever "feasible" is true, "predicted_power_w" ≤ "budget_watts"·(1+1e-9).
// It reads the three top-level fields, which precede the allocation arrays,
// without decoding the whole body.
func checkBudget(body []byte) error {
	head := body
	if i := bytes.Index(body, []byte(`"allocations"`)); i >= 0 {
		head = body[:i]
	}
	budget, err := numberField(head, `"budget_watts":`)
	if err != nil {
		return err
	}
	predicted, err := numberField(head, `"predicted_power_w":`)
	if err != nil {
		return err
	}
	if bytes.Contains(head, []byte(`"feasible":true`)) && predicted > budget*(1+1e-9) {
		return fmt.Errorf("feasible solve predicts %.6f W over its %.6f W budget", predicted, budget)
	}
	return nil
}

func numberField(b []byte, key string) (float64, error) {
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return 0, fmt.Errorf("solve body has no %s", key)
	}
	rest := b[i+len(key):]
	end := bytes.IndexAny(rest, ",}")
	if end < 0 {
		end = len(rest)
	}
	return strconv.ParseFloat(string(rest[:end]), 64)
}

// churnCheck verifies that recalibration invalidates exactly what it
// should. Every recalibration of a system bumps its PVT generation, and the
// first solve of a key under a new generation must miss the cache, once.
//
// The generation a solve was served under is not in its response, but it
// is bounded: at least the number of the system's recalibrations answered
// before the solve was sent (lo), at most the number sent before its
// response arrived (hi). From that:
//   - a solve with hi = 0 predates every recalibration and must be the
//     primed body, answered from cache;
//   - per key, the misses must number at least the generations some solve
//     certainly ran under and at most the generations any solve could have
//     run under (each generation misses once, then hits);
//   - a key has at most one distinct body per miss, plus the primed one;
//   - the first solve sent after a recalibration was answered must be a miss
//     whenever nothing else of that key can have reached the new generation
//     first — no earlier solve overlapping the recalibration, no later one
//     overlapping it.
func churnCheck(ops []op, tims []timing, recs []opRec) error {
	type window struct{ start, end time.Duration }
	recals := make(map[string][]window)
	for i := range ops {
		if ops[i].kind == opRecal && !recs[i].failed {
			recals[ops[i].system] = append(recals[ops[i].system], window{tims[i].send, tims[i].end})
		}
	}
	for _, ws := range recals {
		sort.Slice(ws, func(a, b int) bool { return ws[a].start < ws[b].start })
	}
	type solve struct {
		i      int
		lo, hi int
	}
	byKey := make(map[int][]solve)
	for i := range ops {
		if ops[i].kind != opSolve || ops[i].key < 0 || recs[i].failed {
			continue
		}
		s := solve{i: i}
		for _, w := range recals[ops[i].system] {
			if w.end < tims[i].send {
				s.lo++
			}
			if w.start < tims[i].end {
				s.hi++
			}
		}
		byKey[ops[i].key] = append(byKey[ops[i].key], s)
	}
	keys := make([]int, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		solves := byKey[k] // in send order: ops are issued in due order
		misses := 0
		forced := make(map[int]bool)
		possible := make(map[int]bool)
		bodies := make(map[uint64]bool)
		for _, s := range solves {
			rec := &recs[s.i]
			if rec.disp == "miss" {
				misses++
			}
			bodies[rec.hash] = true
			if s.hi == 0 && (rec.disp != "hit" || !rec.match) {
				return fmt.Errorf("key %d: solve before any recalibration answered %s, reference body %v", k, rec.disp, rec.match)
			}
			if s.lo == s.hi && s.lo > 0 {
				forced[s.lo] = true
			}
			for g := max(s.lo, 1); g <= s.hi; g++ {
				possible[g] = true
			}
		}
		if misses < len(forced) || misses > len(possible) {
			return fmt.Errorf("key %d: %d misses, want between %d and %d", k, misses, len(forced), len(possible))
		}
		if len(bodies) > misses+1 {
			return fmt.Errorf("key %d: %d distinct bodies from %d misses", k, len(bodies), misses)
		}
		maxHi := 0 // over the solves sent before solves[j]
		for j, s := range solves {
			first := s.lo > 0 && s.lo == s.hi && (j == 0 || solves[j-1].lo < s.lo)
			alone := maxHi < s.lo && (j+1 == len(solves) || tims[solves[j+1].i].send >= tims[s.i].end)
			if first && alone && recs[s.i].disp != "miss" {
				return fmt.Errorf("key %d: first solve after recalibration %d answered %s", k, s.lo, recs[s.i].disp)
			}
			maxHi = max(maxHi, s.hi)
		}
	}
	return nil
}
