package telemetry

import (
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestServeGracefulShutdownReleasesPort starts the debug endpoint, hits
// /metrics, closes it, and proves the port is immediately reusable — the
// leak the bare-listener implementation had.
func TestServeGracefulShutdownReleasesPort(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("varpower_test_total", "test counter", nil).Inc()

	s, err := StartServer("127.0.0.1:0", DebugMux(reg))
	if err != nil {
		t.Fatal(err)
	}
	addr := s.Addr()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "varpower_test_total") {
		t.Fatalf("/metrics missing registered counter:\n%s", body)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The port must be free the moment Close returns.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("port not released after shutdown: %v", err)
	}
	ln.Close()
}

// TestStartServerShutdownWaitsForInflight proves Shutdown is graceful: a
// handler that is mid-response when Shutdown begins still completes, and
// the port is reusable once Shutdown returns.
func TestStartServerShutdownWaitsForInflight(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/slow", func(w http.ResponseWriter, _ *http.Request) {
		close(entered)
		<-release
		io.WriteString(w, "done")
	})
	s, err := StartServer("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		body string
		err  error
	}
	got := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + s.Addr() + "/slow")
		if err != nil {
			got <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		got <- result{body: string(b), err: err}
	}()

	<-entered
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	// Give Shutdown a moment to close the listener, then release the handler.
	time.Sleep(20 * time.Millisecond)
	close(release)

	r := <-got
	if r.err != nil {
		t.Fatalf("in-flight request cut by shutdown: %v", r.err)
	}
	if r.body != "done" {
		t.Fatalf("in-flight response truncated: %q", r.body)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The port must be free the moment Shutdown returns.
	ln, err := net.Listen("tcp", s.Addr())
	if err != nil {
		t.Fatalf("port not released after shutdown: %v", err)
	}
	ln.Close()
}
