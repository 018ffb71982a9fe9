package main

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"strconv"
)

// The reference server answers every request — any method, any path — by
// reading the request body and writing one fixed JSON body: the bare cost
// of a Go HTTP round trip on the host it runs on, with none of varpowerd's
// work. A served run measures it in slices alternating with the daemon's,
// on the same requests and the same schedule, and reads the daemon's
// latency against it (see bench/README.md).

// echoHandler serves the reference body of size bytes.
func echoHandler(size int) http.Handler {
	body := append([]byte(`{"pad":"`), bytes.Repeat([]byte("x"), max(size-10, 0))...)
	body = append(body, `"}`...)
	length := strconv.Itoa(len(body))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", length)
		_, _ = w.Write(body)
	})
}

// serveEcho runs the reference server on addr until the process is killed.
func serveEcho(addr string, size int) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return http.Serve(ln, echoHandler(size))
}
