package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"varpower/internal/service"
	"varpower/internal/snapshot"
)

// stateConfig is testConfig plus a state directory.
func stateConfig(dir string, workers int) service.Config {
	cfg := testConfig()
	cfg.StateDir = dir
	cfg.Workers = workers
	return cfg
}

// postJSON issues a raw POST and returns body + status.
func postJSON(t *testing.T, url string, payload any) ([]byte, int) {
	t.Helper()
	var rd *bytes.Reader
	if payload != nil {
		buf, err := json.Marshal(payload)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	} else {
		rd = bytes.NewReader(nil)
	}
	resp, err := http.Post(url, "application/json", rd)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return out.Bytes(), resp.StatusCode
}

// getBody issues a raw GET and returns the body.
func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, out.Bytes())
	}
	return out.Bytes()
}

// TestSnapshotRestoreRoundTrip is the crash-safety property test: a server
// that calibrated, recalibrated (gen 1), ran a job and answered solves is
// snapshotted, torn down, and rebuilt from the snapshot. The restored
// server must be indistinguishable: deep-equal PVT and attribution state,
// the preserved generation, and byte-identical /v1/solve bodies answered
// as cache hits — at every worker count, since worker fan-out must never
// leak into durable state.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			dir := t.TempDir()
			ctx := context.Background()

			sA, hsA, cA := newTestServer(t, stateConfig(dir, workers))
			if _, err := cA.Recalibrate(ctx, service.RecalibrateRequest{
				System: "HA8K", Modules: []int{0, 1},
			}); err != nil {
				t.Fatalf("recalibrate: %v", err)
			}
			job, err := cA.SubmitJob(ctx, solveReq())
			if err != nil {
				t.Fatalf("submit job: %v", err)
			}
			if _, err := cA.WaitJob(ctx, job.ID, 5*time.Millisecond); err != nil {
				t.Fatalf("wait job: %v", err)
			}
			reqs := []service.SolveRequest{solveReq(), solveReq()}
			reqs[1].BudgetWatts = 2000
			bodies := make([][]byte, len(reqs))
			for i, r := range reqs {
				body, status, _ := postSolve(t, hsA.URL, r)
				if status != http.StatusOK {
					t.Fatalf("solve %d: status %d: %s", i, status, body)
				}
				bodies[i] = body
			}
			pvtA := getBody(t, hsA.URL+"/v1/pvt/HA8K")
			attribA, err := cA.Attrib(ctx, "HA8K")
			if err != nil {
				t.Fatalf("attrib: %v", err)
			}
			if body, status := postJSON(t, hsA.URL+"/v1/snapshot", nil); status != http.StatusOK {
				t.Fatalf("POST /v1/snapshot: status %d: %s", status, body)
			}
			if err := sA.Drain(ctx); err != nil {
				t.Fatalf("drain: %v", err)
			}
			hsA.Close()

			sB, hsB, cB := newTestServer(t, stateConfig(dir, workers))
			rep := sB.RestoreReport()
			if len(rep) != 1 || rep[0].Outcome != "warm" {
				t.Fatalf("restore report = %+v, want one warm outcome", rep)
			}
			sys, err := cB.Systems(ctx)
			if err != nil {
				t.Fatalf("systems: %v", err)
			}
			if got := sys[0]["pvt_generation"].(float64); got != 1 {
				t.Fatalf("restored pvt_generation = %v, want 1 (preserved, not bumped)", got)
			}
			if restored, _ := sys[0]["restored"].(bool); !restored {
				t.Fatalf("restored flag missing from /v1/systems row: %v", sys[0])
			}
			if pvtB := getBody(t, hsB.URL+"/v1/pvt/HA8K"); !bytes.Equal(pvtA, pvtB) {
				t.Fatalf("PVT diverged across restore:\n a=%s\n b=%s", pvtA, pvtB)
			}
			attribB, err := cB.Attrib(ctx, "HA8K")
			if err != nil {
				t.Fatalf("attrib after restore: %v", err)
			}
			ja, _ := json.Marshal(attribA)
			jb, _ := json.Marshal(attribB)
			if !bytes.Equal(ja, jb) {
				t.Fatalf("attribution state diverged across restore:\n a=%s\n b=%s", ja, jb)
			}
			for i, r := range reqs {
				body, status, disp := postSolve(t, hsB.URL, r)
				if status != http.StatusOK {
					t.Fatalf("restored solve %d: status %d: %s", i, status, body)
				}
				if disp != "hit" {
					t.Fatalf("restored solve %d disposition = %q, want hit (cache carried across restart)", i, disp)
				}
				if !bytes.Equal(body, bodies[i]) {
					t.Fatalf("solve %d body diverged across restore:\n a=%s\n b=%s", i, bodies[i], body)
				}
			}
		})
	}
}

// TestSnapshotCorruptFallsBackCold bit-flips the snapshot payload on disk
// and asserts the next boot rejects it loudly (outcome "corrupt"), rebuilds
// cold, and serves correct answers at generation 0.
func TestSnapshotCorruptFallsBackCold(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	sA, hsA, _ := newTestServer(t, stateConfig(dir, 0))
	want, status, _ := postSolve(t, hsA.URL, solveReq())
	if status != http.StatusOK {
		t.Fatalf("solve: status %d", status)
	}
	if _, err := sA.Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	hsA.Close()

	path := filepath.Join(dir, "ha8k.snap")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("snapshot file: %v", err)
	}
	raw[len(raw)/2] ^= 0x20
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	sB, hsB, cB := newTestServer(t, stateConfig(dir, 0))
	rep := sB.RestoreReport()
	if len(rep) != 1 || rep[0].Outcome != "corrupt" {
		t.Fatalf("restore report = %+v, want one corrupt outcome", rep)
	}
	sys, err := cB.Systems(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := sys[0]["pvt_generation"].(float64); got != 0 {
		t.Fatalf("cold rebuild generation = %v, want 0", got)
	}
	if restored, _ := sys[0]["restored"].(bool); restored {
		t.Fatal("cold rebuild must not claim restored state")
	}
	got, status, disp := postSolve(t, hsB.URL, solveReq())
	if status != http.StatusOK || disp == "hit" {
		t.Fatalf("cold solve: status %d disp %q, want 200 and a computed answer", status, disp)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("cold rebuild solve diverged from the original:\n a=%s\n b=%s", want, got)
	}
}

// TestSnapshotStaleConfigRebuilds asserts a valid snapshot written under a
// different serving seed is refused as stale, never half-adopted.
func TestSnapshotStaleConfigRebuilds(t *testing.T) {
	dir := t.TempDir()
	sA, hsA, _ := newTestServer(t, stateConfig(dir, 0))
	if _, err := sA.Snapshot(); err != nil {
		t.Fatal(err)
	}
	hsA.Close()

	cfg := stateConfig(dir, 0)
	cfg.Seed = 0xbeef
	sB, _, _ := newTestServer(t, cfg)
	rep := sB.RestoreReport()
	if len(rep) != 1 || rep[0].Outcome != "stale" {
		t.Fatalf("restore report = %+v, want one stale outcome", rep)
	}
}

// TestLazySystemRestoresPrimarySnapshot is the failover-adoption property:
// a "secondary" configured with the system only as lazy, sharing the
// primary's state directory, must materialise it on first request by
// restoring the primary's snapshot — answering the primary's cached solves
// as hits at the primary's generation.
func TestLazySystemRestoresPrimarySnapshot(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	sA, hsA, cA := newTestServer(t, stateConfig(dir, 0))
	if _, err := cA.Recalibrate(ctx, service.RecalibrateRequest{
		System: "HA8K", Modules: []int{3},
	}); err != nil {
		t.Fatal(err)
	}
	want, status, _ := postSolve(t, hsA.URL, solveReq())
	if status != http.StatusOK {
		t.Fatalf("primary solve: %d", status)
	}
	if _, err := sA.Snapshot(); err != nil {
		t.Fatal(err)
	}
	hsA.Close()

	cfg := service.Config{Systems: []string{"Cab"}, Modules: 32, Seed: 0x5c15,
		StateDir: dir, LazySystems: []string{"HA8K"}}
	sB, hsB, cB := newTestServer(t, cfg)
	if rep := sB.RestoreReport(); len(rep) != 1 || rep[0].System != "Cab" {
		t.Fatalf("boot restore report = %+v, want Cab only (HA8K still lazy)", rep)
	}
	sys, err := cB.Systems(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(sys) != 1 {
		t.Fatalf("lazy system listed before first request: %v", sys)
	}
	got, status, disp := postSolve(t, hsB.URL, solveReq())
	if status != http.StatusOK {
		t.Fatalf("failover solve: status %d: %s", status, got)
	}
	if disp != "hit" {
		t.Fatalf("failover solve disposition = %q, want hit from the adopted snapshot", disp)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("failover solve diverged from the primary's answer:\n a=%s\n b=%s", want, got)
	}
	sys, err = cB.Systems(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(sys) != 2 {
		t.Fatalf("materialised lazy system missing from /v1/systems: %v", sys)
	}
	var row map[string]any
	for _, r := range sys {
		if r["name"] == "HA8K" {
			row = r
		}
	}
	if row == nil || row["pvt_generation"].(float64) != 1 || row["restored"] != true {
		t.Fatalf("adopted HA8K row = %v, want gen 1 restored", row)
	}
}

// TestSnapshotV1BootsCold: a version-1 snapshot holds VaFs solve bodies
// computed without the model margin, so the daemon refuses it by version,
// rebuilds cold and adopts none of its rows.
func TestSnapshotV1BootsCold(t *testing.T) {
	dir := t.TempDir()
	req := solveReq()
	req.Scheme = "vafs"
	sA, hsA, _ := newTestServer(t, stateConfig(dir, 0))
	want, status, _ := postSolve(t, hsA.URL, req)
	if status != http.StatusOK {
		t.Fatalf("solve: status %d: %s", status, want)
	}
	if _, err := sA.Snapshot(); err != nil {
		t.Fatal(err)
	}
	hsA.Close()
	path := filepath.Join(dir, "ha8k.snap")
	payload, _, err := snapshot.Read(path, service.SnapshotVersion)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snapshot.Write(path, 1, payload); err != nil {
		t.Fatal(err)
	}

	sB, hsB, _ := newTestServer(t, stateConfig(dir, 0))
	if rep := sB.RestoreReport(); len(rep) != 1 || rep[0].Outcome != "corrupt" || !strings.Contains(rep[0].Note, "version 1") {
		t.Fatalf("restore report = %+v, want the version-1 file refused", rep)
	}
	got, status, disp := postSolve(t, hsB.URL, req)
	if status != http.StatusOK || disp != "miss" {
		t.Fatalf("solve after refusal: status %d disp %q, want 200 computed", status, disp)
	}
	if st := sB.PMTCacheStats(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("model cache %+v, want one miss: no row adopted", st)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("cold rebuild diverged:\n a=%s\n b=%s", want, got)
	}
}

// TestSnapshotRoundTripKeepsMargin: across a version-2 round trip the first
// VaFs solve is a cache hit with the same bytes, and a budget first solved
// after the snapshot, answered from the restored model row, equals the
// original daemon's answer: the row carries the margin.
func TestSnapshotRoundTripKeepsMargin(t *testing.T) {
	dir := t.TempDir()
	req := solveReq()
	req.Scheme = "vafs"
	later := req
	later.BudgetWatts = 3000
	sA, hsA, _ := newTestServer(t, stateConfig(dir, 0))
	want, status, _ := postSolve(t, hsA.URL, req)
	if status != http.StatusOK {
		t.Fatalf("solve: status %d: %s", status, want)
	}
	if _, err := sA.Snapshot(); err != nil {
		t.Fatal(err)
	}
	wantLater, status, _ := postSolve(t, hsA.URL, later)
	if status != http.StatusOK {
		t.Fatalf("later solve: status %d: %s", status, wantLater)
	}
	hsA.Close()

	sB, hsB, _ := newTestServer(t, stateConfig(dir, 0))
	if rep := sB.RestoreReport(); len(rep) != 1 || rep[0].Outcome != "warm" {
		t.Fatalf("restore report = %+v, want one warm outcome", rep)
	}
	got, status, disp := postSolve(t, hsB.URL, req)
	if status != http.StatusOK || disp != "hit" || !bytes.Equal(got, want) {
		t.Fatalf("restored VaFs solve: status %d disp %q, want a hit with\n %s\ngot\n %s", status, disp, want, got)
	}
	got, status, disp = postSolve(t, hsB.URL, later)
	if status != http.StatusOK || disp != "miss" {
		t.Fatalf("later solve after restore: status %d disp %q, want 200 computed", status, disp)
	}
	if st := sB.PMTCacheStats(); st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("model cache %+v, want the restored row hit once", st)
	}
	if !bytes.Equal(got, wantLater) {
		t.Fatalf("restored model row answered differently:\n a=%s\n b=%s", wantLater, got)
	}
}
