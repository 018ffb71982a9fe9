package main

import (
	"context"
	"encoding/json"
	"io"
	"path/filepath"
	"testing"
	"time"

	"varpower/internal/cluster"
	"varpower/internal/obs"
	"varpower/internal/service"
	"varpower/internal/shard"
	"varpower/internal/telemetry"
)

// inprocTopology serves the daemon's configuration (or the reference
// server) from this process — the same service and router packages
// varpowerd wires up, without exec — so the smoke test needs no built
// binary.
type inprocTopology struct {
	routed  bool
	echo    int
	servers []*telemetry.Server
	svcs    []*service.Server
	router  *shard.Router
}

func (t *inprocTopology) serve(addr string, cfg service.Config) (string, error) {
	svc, err := service.New(cfg)
	if err != nil {
		return "", err
	}
	hs, err := telemetry.StartServer(addr, svc.Handler())
	if err != nil {
		return "", err
	}
	t.svcs, t.servers = append(t.svcs, svc), append(t.servers, hs)
	return "http://" + hs.Addr(), nil
}

func (t *inprocTopology) start(context.Context) (endpoints, error) {
	if t.echo > 0 {
		hs, err := telemetry.StartServer("127.0.0.1:0", echoHandler(t.echo))
		if err != nil {
			return endpoints{}, err
		}
		t.servers = append(t.servers, hs)
		u := "http://" + hs.Addr()
		return endpoints{front: u, all: []string{u}}, nil
	}
	if !t.routed {
		u, err := t.serve("127.0.0.1:0", daemonConfig())
		return endpoints{front: u, metrics: []string{u}, all: []string{u}}, err
	}
	a, err := freeAddr()
	if err != nil {
		return endpoints{}, err
	}
	b, err := freeAddr()
	if err != nil {
		return endpoints{}, err
	}
	set, err := shard.ParseSet("a=" + a + ",b=" + b)
	if err != nil {
		return endpoints{}, err
	}
	var all []string
	for _, s := range cluster.Presets() {
		all = append(all, s.Name)
	}
	ep := endpoints{shards: map[string]string{}}
	for name, addr := range map[string]string{"a": a, "b": b} {
		cfg := daemonConfig()
		cfg.Systems, cfg.LazySystems = shard.Assign(set, name, all)
		u, err := t.serve(addr, cfg)
		if err != nil {
			return endpoints{}, err
		}
		ep.shards[name] = u
		ep.metrics = append(ep.metrics, u)
	}
	t.router, err = shard.NewRouter(shard.RouterConfig{Set: set, Obs: obs.New(obs.Config{})})
	if err != nil {
		return endpoints{}, err
	}
	t.router.Start()
	hs, err := telemetry.StartServer("127.0.0.1:0", t.router.Handler())
	if err != nil {
		return endpoints{}, err
	}
	t.servers = append(t.servers, hs)
	ep.front = "http://" + hs.Addr()
	ep.all = append(append([]string{}, ep.metrics...), ep.front)
	return ep, nil
}

func (t *inprocTopology) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, hs := range t.servers {
		_ = hs.Shutdown(ctx)
	}
	if t.router != nil {
		t.router.Stop()
	}
	for _, svc := range t.svcs {
		_ = svc.Drain(ctx)
	}
}

// TestSmokeAllWorkloads runs every workload, traced, for a fraction of a
// second against in-process daemons, and checks that each passes its
// correctness gates and reports every metric BENCHMARK.json lists.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			cfg := runConfig{root: root, seed: 3, seconds: 0.4, trace: true, tracePath: filepath.Join(t.TempDir(), "trace.json"),
				gridModules: 48, boots: 1, setupBoots: 2, slice: 20 * time.Millisecond,
				newTopology:  func(routed bool) topology { return &inprocTopology{routed: routed} },
				newReference: func(size int) topology { return &inprocTopology{echo: size} }}
			res, err := run(context.Background(), w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range res.Checks {
				if !c.OK {
					t.Errorf("check failed: %s: %s", c.Name, c.Detail)
				}
			}
			if !res.Correct || res.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, m := range append(append([]metricSpec{}, bf.EndToEnd...), bf.PerLayer...) {
				if _, ok := res.Metrics[m.Name]; !ok {
					t.Errorf("%s not measured", m.Name)
				}
			}
			line, err := report(io.Discard, res, bf)
			if err != nil {
				t.Fatal(err)
			}
			var out struct {
				Correct   bool                       `json:"correct"`
				Attempted int                        `json:"attempted"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(line), &out); err != nil || len(out.Metrics) != len(bf.PerLayer) {
				t.Errorf("result line %s: %v", line, err)
			}
		})
	}
}
