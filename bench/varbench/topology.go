package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os/exec"
	"strconv"
	"syscall"
	"time"
)

// endpoints are the base URLs of a running topology.
type endpoints struct {
	front   string            // where the generator sends
	shards  map[string]string // routed only: shard name → base URL
	metrics []string          // processes whose /v1/metrics carry the solve-path counters
	all     []string          // every process, for health checks
}

// topology boots one serving configuration — a single daemon, two shards
// behind a router, or the reference server — and stops it again. start
// returns once every process answers /healthz.
type topology interface {
	start(ctx context.Context) (endpoints, error)
	stop()
}

// procTopology runs real processes: the varpowerd binary with its default
// flags or, with echo set, varbench's own reference server.
type procTopology struct {
	bin    string
	routed bool
	echo   int // the reference server's body size; 0 runs varpowerd
	procs  []*proc
}

type proc struct {
	cmd    *exec.Cmd
	done   chan struct{}
	stderr bytes.Buffer // read only after done closes
}

func (t *procTopology) spawn(args ...string) error {
	p := &proc{cmd: exec.Command(t.bin, args...), done: make(chan struct{})}
	p.cmd.Stderr = &p.stderr
	dieWithParent(p.cmd)
	if err := p.cmd.Start(); err != nil {
		return err
	}
	go func() {
		_ = p.cmd.Wait() // an exit before stop is reported by waitHealthy
		close(p.done)
	}()
	t.procs = append(t.procs, p)
	return nil
}

func (t *procTopology) start(ctx context.Context) (endpoints, error) {
	if !t.routed {
		addr, err := freeAddr()
		if err != nil {
			return endpoints{}, err
		}
		u := "http://" + addr
		ep := endpoints{front: u, metrics: []string{u}, all: []string{u}}
		args := []string{"-addr", addr, "-quiet"}
		if t.echo > 0 {
			ep.metrics = nil
			args = []string{"-echo", addr, "-echo-bytes", strconv.Itoa(t.echo)}
		}
		if err := t.spawn(args...); err != nil {
			return endpoints{}, err
		}
		return ep, t.waitHealthy(ctx, ep.all)
	}
	var addrs [3]string
	for i := range addrs {
		a, err := freeAddr()
		if err != nil {
			return endpoints{}, err
		}
		addrs[i] = a
	}
	set := "a=" + addrs[0] + ",b=" + addrs[1]
	ep := endpoints{
		front:  "http://" + addrs[2],
		shards: map[string]string{"a": "http://" + addrs[0], "b": "http://" + addrs[1]},
	}
	ep.metrics = []string{ep.shards["a"], ep.shards["b"]}
	ep.all = append(append([]string{}, ep.metrics...), ep.front)
	for i, name := range []string{"a", "b"} {
		if err := t.spawn("-addr", addrs[i], "-shard", name, "-shard-set", set, "-quiet"); err != nil {
			return endpoints{}, err
		}
	}
	if err := t.spawn("-addr", addrs[2], "-route-to", set, "-quiet"); err != nil {
		return endpoints{}, err
	}
	return ep, t.waitHealthy(ctx, ep.all)
}

// waitHealthy polls every URL's /healthz until each has answered 200.
func (t *procTopology) waitHealthy(ctx context.Context, urls []string) error {
	hc := &http.Client{Timeout: 500 * time.Millisecond}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(60 * time.Second)
	pending := append([]string{}, urls...)
	for len(pending) > 0 {
		for _, p := range t.procs {
			select {
			case <-p.done:
				return fmt.Errorf("%v exited during boot: %s", p.cmd.Args, p.stderr.Bytes())
			default:
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not healthy after 60s: %v", pending)
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		pending = unhealthy(ctx, hc, pending)
		if len(pending) > 0 {
			preciseSleep(250 * time.Microsecond)
		}
	}
	return nil
}

// unhealthy returns the URLs whose /healthz did not answer 200.
func unhealthy(ctx context.Context, hc *http.Client, urls []string) []string {
	var out []string
	for _, u := range urls {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u+"/healthz", nil)
		if err == nil {
			var resp *http.Response
			if resp, err = hc.Do(req); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					continue
				}
			}
		}
		out = append(out, u)
	}
	return out
}

// stop ends every process: SIGTERM (varpowerd drains and exits), then
// SIGKILL for any still running after ten seconds; it returns once all have
// exited.
func (t *procTopology) stop() {
	for _, p := range t.procs {
		_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	}
	for _, p := range t.procs {
		select {
		case <-p.done:
		case <-time.After(10 * time.Second):
			_ = p.cmd.Process.Kill()
			<-p.done
		}
	}
	t.procs = nil
}

// freeAddr returns a loopback address with a port the kernel just handed
// out and released; the daemons bind it a moment later.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}
