//go:build unix

package main

import (
	"io"
	"log/slog"
	"net"
	"net/http"
	"syscall"
	"testing"
	"time"
)

// TestServeStopsOnSIGTERM: a SIGTERM makes serve shut the HTTP server
// down and return nil, which is what lets main close the journal and
// exit 0.
func TestServeStopsOnSIGTERM(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + ln.Addr().String()
	hs := &http.Server{Handler: http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})}
	done := make(chan error, 1)
	go func() { done <- serve(hs, ln, slog.New(slog.NewTextHandler(io.Discard, nil))) }()
	// serve installs its signal handler before it serves, so once a
	// request is answered the SIGTERM goes to serve, not to the test.
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve after SIGTERM: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve still running 10 s after SIGTERM")
	}
	if resp, err := http.Get(url); err == nil {
		resp.Body.Close()
		t.Fatal("server still answering after SIGTERM")
	}
}
