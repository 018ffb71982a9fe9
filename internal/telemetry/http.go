package telemetry

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Server is a lifecycle-managed HTTP server: Listen-then-serve on its own
// goroutine, graceful Shutdown on demand. It exists because two layers need
// the same careful teardown — the opt-in debug endpoint below and the
// varpowerd control plane (internal/service) — and a bare net.Listener plus
// a detached goroutine leaks the port on exit and cuts in-flight responses
// mid-body. Shutdown stops accepting, waits for running handlers up to the
// context deadline, and releases the port before returning.
type Server struct {
	srv  *http.Server
	ln   net.Listener
	done chan struct{} // closed when Serve returns
	err  error         // Serve's terminal error (nil on clean shutdown)
}

// StartServer binds addr (e.g. ":9090" or "127.0.0.1:0") and serves h on a
// background goroutine until Shutdown or Close.
func StartServer(addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	s := &Server{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second},
		ln:   ln,
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		if err := s.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.err = err
		}
	}()
	return s, nil
}

// Addr returns the bound listener address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Shutdown gracefully stops the server: the listener closes immediately (no
// new connections), in-flight handlers run to completion up to ctx's
// deadline, then the serve goroutine exits and the port is free for reuse.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.srv.Shutdown(ctx)
	<-s.done
	if err == nil {
		err = s.err
	}
	return err
}

// defaultDrain bounds Close's graceful drain: debug handlers are read-only
// snapshots, so anything still running after this is a stuck profile dump.
const defaultDrain = 5 * time.Second

// Kill is the ungraceful stop: the listener and every active connection
// close immediately, cutting in-flight responses mid-body. It exists for
// chaos harnesses that need a process-death stand-in; everything else
// should drain via Shutdown or Close.
func (s *Server) Kill() {
	_ = s.srv.Close()
	<-s.done
}

// Close is Shutdown with a short default drain timeout — the func() error
// shape the CLI teardown path wants.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), defaultDrain)
	defer cancel()
	return s.Shutdown(ctx)
}

// DebugMux builds the debug endpoint's routes:
//
//	/metrics      Prometheus text exposition of reg
//	/debug/vars   expvar (Go runtime memstats, cmdline)
//	/debug/pprof  the standard pprof profiles
//
// Handlers only read telemetry state, so serving them never interferes with
// simulation determinism. varpowerd mounts the /debug subtree of this mux
// next to its /v1 API.
func DebugMux(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WritePrometheus(w, reg)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
