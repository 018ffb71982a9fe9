// Router tests live in package shard_test and front real service.Server
// shards over httptest — the router is exercised exactly the way varpowerd
// wires it.
package shard_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"varpower/internal/service"
	"varpower/internal/shard"
	"varpower/internal/telemetry"
)

// fleet is a two-shard test fleet behind a router.
type fleet struct {
	set     *shard.Set
	router  *shard.Router
	front   *httptest.Server
	servers map[string]*httptest.Server // by shard name
}

// fleetModules is each fleet system's size: a solve body at 32 modules
// outgrows net/http's 2 KB pre-chunking buffer, so framing is the
// handler's and the router's choice, not the server's.
const fleetModules = 32

// newFleet boots two shards that can each serve every system (Workers: 1,
// shared seed, so solve bodies are byte-identical across shards) plus a
// router with a fast probe cadence.
func newFleet(t *testing.T, cfg shard.RouterConfig) *fleet {
	t.Helper()
	servers := map[string]*httptest.Server{}
	var parts []string
	for _, name := range []string{"a", "b"} {
		svc, err := service.New(service.Config{
			Systems: []string{"HA8K", "Cab"},
			Modules: fleetModules,
			Seed:    0x5c15,
			Workers: 1,
		})
		if err != nil {
			t.Fatalf("service.New(%s): %v", name, err)
		}
		hs := httptest.NewServer(svc.Handler())
		t.Cleanup(hs.Close)
		servers[name] = hs
		parts = append(parts, name+"="+hs.URL)
	}
	set, err := shard.ParseSet(strings.Join(parts, ","))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Set = set
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = time.Hour // probing off unless a test opts in
	}
	if cfg.Breaker.FailThreshold == 0 {
		cfg.Breaker = shard.BreakerConfig{FailThreshold: 2, OpenBackoff: 20 * time.Millisecond, MaxBackoff: 100 * time.Millisecond}
	}
	r, err := shard.NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	t.Cleanup(r.Stop)
	front := httptest.NewServer(r.Handler())
	t.Cleanup(front.Close)
	return &fleet{set: set, router: r, front: front, servers: servers}
}

// solve posts the canonical solve through the router and returns body,
// status and the answering shard.
func (f *fleet) solve(t *testing.T) ([]byte, int, string) {
	t.Helper()
	body := []byte(`{"system":"HA8K","workload":"dgemm","scheme":"vapc","budget_watts":2400}`)
	resp, err := http.Post(f.front.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("solve through router: %v", err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return b, resp.StatusCode, resp.Header.Get("X-Varpower-Shard")
}

func TestRouterRoutesToPrimary(t *testing.T) {
	f := newFleet(t, shard.RouterConfig{})
	body, status, shardName := f.solve(t)
	if status != http.StatusOK {
		t.Fatalf("solve = %d: %s", status, body)
	}
	if want := f.set.Primary("HA8K").Name; shardName != want {
		t.Fatalf("answered by %q, want primary %q", shardName, want)
	}
	var out map[string]any
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("solve body not JSON: %v", err)
	}
	if _, ok := out["alpha"]; !ok {
		t.Fatalf("solve body missing alpha: %s", body)
	}
}

// TestRouterRelaysFixedLengthBodies: a routed solve is the shard's body
// byte for byte, sent with its length rather than chunked, and each proxied
// request lands once in the answering shard's request counter.
func TestRouterRelaysFixedLengthBodies(t *testing.T) {
	f := newFleet(t, shard.RouterConfig{})
	primary := f.set.Primary("HA8K").Name
	requests := telemetry.Default().Counter("varpower_shard_requests_total",
		"Requests proxied to shards, by shard and status code.",
		telemetry.Labels{"shard": primary, "code": "200"})
	before := requests.Value()
	payload := `{"system":"HA8K","workload":"dgemm","scheme":"vapc","budget_watts":2400}`
	post := func(url string) (*http.Response, []byte) {
		resp, err := http.Post(url+"/v1/solve", "application/json", strings.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("solve via %s: %d, %v: %s", url, resp.StatusCode, err, b)
		}
		return resp, b
	}
	direct, want := post(f.servers[primary].URL)
	if len(want) <= 2048 {
		t.Fatalf("a %d-byte body fits net/http's pre-chunking buffer; the framing check needs a larger one", len(want))
	}
	for i := 0; i < 2; i++ {
		resp, got := post(f.front.URL)
		if !bytes.Equal(got, want) {
			t.Fatalf("routed body differs from the shard's:\n got: %s\nwant: %s", got, want)
		}
		for _, r := range []*http.Response{direct, resp} {
			if r.ContentLength != int64(len(want)) || len(r.TransferEncoding) != 0 {
				t.Fatalf("Content-Length %d, Transfer-Encoding %v for a %d-byte body",
					r.ContentLength, r.TransferEncoding, len(want))
			}
		}
	}
	if got := requests.Value() - before; got != 2 {
		t.Fatalf("shard %s request counter grew by %v over two routed solves, want 2", primary, got)
	}
}

// TestRouterFailsOverToSecondary: kill HA8K's primary; the router must
// answer from the secondary with an equally valid body, and the primary's
// breaker must open after the threshold.
func TestRouterFailsOverToSecondary(t *testing.T) {
	f := newFleet(t, shard.RouterConfig{})
	primary := f.set.Primary("HA8K").Name
	secondary, _ := f.set.Secondary("HA8K")

	before, status, _ := f.solve(t)
	if status != http.StatusOK {
		t.Fatalf("pre-kill solve = %d", status)
	}

	f.servers[primary].CloseClientConnections()
	f.servers[primary].Close()

	for i := 0; i < 3; i++ {
		after, status, shardName := f.solve(t)
		if status != http.StatusOK {
			t.Fatalf("post-kill solve %d = %d: %s", i, status, after)
		}
		if shardName != secondary.Name {
			t.Fatalf("post-kill solve answered by %q, want secondary %q", shardName, secondary.Name)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("failover changed the solve body:\n pre: %s\npost: %s", before, after)
		}
	}
}

// TestRouterAllShardsDownIsBudgetedError: with the whole fleet dead the
// router must answer 503 + Retry-After — inside the shed-load error budget,
// never a hung request or a raw transport error.
func TestRouterAllShardsDownIsBudgetedError(t *testing.T) {
	f := newFleet(t, shard.RouterConfig{})
	for _, hs := range f.servers {
		hs.CloseClientConnections()
		hs.Close()
	}
	var status int
	var body []byte
	// First solves burn the breakers' failure threshold; the final answer
	// must still be a clean 503 every time.
	for i := 0; i < 4; i++ {
		body, status, _ = f.solve(t)
		if status != http.StatusServiceUnavailable {
			t.Fatalf("solve %d with fleet down = %d: %s", i, status, body)
		}
	}
	resp, err := http.Post(f.front.URL+"/v1/solve", "application/json",
		strings.NewReader(`{"system":"HA8K","workload":"dgemm","scheme":"vapc","budget_watts":2400}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	var apiErr service.APIError
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatalf("503 body not a structured error: %v", err)
	}
	if apiErr.Err.Code != service.CodeDraining {
		t.Fatalf("code = %q", apiErr.Err.Code)
	}
}

// TestRouterBreakerRecoversViaProbes: after the primary dies and its
// breaker opens, restarting a healthy process at the same address must be
// discovered by the probe loop, closing the breaker without a live request
// having to gamble.
func TestRouterBreakerRecoversViaProbes(t *testing.T) {
	f := newFleet(t, shard.RouterConfig{
		ProbeInterval: 10 * time.Millisecond,
		Breaker:       shard.BreakerConfig{FailThreshold: 1, OpenBackoff: 5 * time.Millisecond, MaxBackoff: 20 * time.Millisecond},
	})
	primary := f.set.Primary("HA8K").Name
	hs := f.servers[primary]
	addr := hs.Listener.Addr().String()
	hs.CloseClientConnections()
	hs.Close()

	// Trip the primary's breaker with a failing solve (answered by the
	// secondary) and let probes observe the death.
	if _, status, _ := f.solve(t); status != http.StatusOK {
		t.Fatalf("failover solve = %d", status)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if st := f.shardStatus(t, primary); !st.Healthy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("probes never marked the dead primary unhealthy")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Restart a healthy shard on the same address.
	svc, err := service.New(service.Config{Systems: []string{"HA8K", "Cab"}, Modules: fleetModules, Seed: 0x5c15, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	revived := &http.Server{Handler: svc.Handler()}
	ln, err := listenOn(addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	go func() { _ = revived.Serve(ln) }()
	t.Cleanup(func() { _ = revived.Shutdown(context.Background()) })

	for {
		st := f.shardStatus(t, primary)
		if st.Healthy && st.Breaker == "closed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("probes never recovered the revived primary: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, status, shardName := f.solve(t); status != http.StatusOK || shardName != primary {
		t.Fatalf("post-recovery solve = %d from %q, want 200 from %q", status, shardName, primary)
	}
}

// listenOn binds a TCP listener to an exact address (for reviving a shard
// where the dead one lived).
func listenOn(addr string) (net.Listener, error) {
	return net.Listen("tcp", addr)
}

// shardStatus reads one row of /v1/shards.
func (f *fleet) shardStatus(t *testing.T, name string) shard.ShardStatus {
	t.Helper()
	resp, err := http.Get(f.front.URL + "/v1/shards")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Shards []shard.ShardStatus `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	for _, st := range out.Shards {
		if st.Name == name {
			return st
		}
	}
	t.Fatalf("shard %q missing from /v1/shards", name)
	return shard.ShardStatus{}
}

// TestRouterMergedSystems: /v1/systems through the router lists each
// system once even though both shards serve it.
func TestRouterMergedSystems(t *testing.T) {
	f := newFleet(t, shard.RouterConfig{})
	resp, err := http.Get(f.front.URL + "/v1/systems")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Systems []struct {
			Name string `json:"name"`
		} `json:"systems"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, s := range out.Systems {
		seen[s.Name]++
	}
	if seen["HA8K"] != 1 || seen["Cab"] != 1 {
		t.Fatalf("merged systems = %v, want each exactly once", seen)
	}
}

// TestRouterJobStickiness: a job submitted through the router must be
// pollable through the router, landing on the shard that minted the ID.
func TestRouterJobStickiness(t *testing.T) {
	f := newFleet(t, shard.RouterConfig{})
	body := `{"system":"Cab","workload":"dgemm","scheme":"vapc","budget_watts":2400}`
	resp, err := http.Post(f.front.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, b)
	}
	submitShard := resp.Header.Get("X-Varpower-Shard")
	var job struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(b, &job); err != nil || job.ID == "" {
		t.Fatalf("job body %s: %v", b, err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(f.front.URL + "/v1/jobs/" + job.ID)
		if err != nil {
			t.Fatal(err)
		}
		pb, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll = %d: %s", resp.StatusCode, pb)
		}
		if got := resp.Header.Get("X-Varpower-Shard"); got != submitShard {
			t.Fatalf("poll answered by %q, submit by %q", got, submitShard)
		}
		var st struct {
			State string `json:"state"`
		}
		_ = json.Unmarshal(pb, &st)
		if st.State == "done" || st.State == "failed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never settled: %s", pb)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestRouterRejectsBodyWithoutSystem(t *testing.T) {
	f := newFleet(t, shard.RouterConfig{})
	resp, err := http.Post(f.front.URL+"/v1/solve", "application/json", strings.NewReader(`{"workload":"dgemm"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}
