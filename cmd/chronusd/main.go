// Command chronusd runs the Chronus controller as a daemon: it boots the
// emulated ten-switch data plane (the Mininet stand-in), starts one switch
// agent per switch on its own TCP socket speaking the ofp control protocol,
// connects the controller to each, provisions the aggregate flow, and
// exposes a REST API for inspecting and updating the network — the shape of
// the paper's Floodlight-based prototype.
//
//	chronusd -addr :8080
//
//	GET  /status                     controller and data-plane summary
//	GET  /topology                   switches, links, current routes
//	GET  /switches/{name}/rules      a switch's flow table
//	GET  /links                      per-link rates, counters, overloads
//	GET  /bandwidth?from=R2&to=R10&interval=50&samples=10
//	GET  /metrics                    Prometheus text exposition
//	GET  /trace?since=42             structured event trace as JSONL
//	GET  /trace?since=42&limit=100   one page of events as JSON, with a next cursor
//	GET  /spans?since=42&limit=100   causal span forest built from the trace
//	GET  /health                     live SLO verdict: slack margins vs observed skew
//	GET  /dash                       self-contained HTML dashboard over /health and /spans
//	GET  /audit                      consistency-audit report over the recorded trace
//	GET  /schemes                    registered scheduler names and accepted update methods
//	GET  /watch                      live SSE stream of trace events, resumable by cursor
//	GET  /queue                      admission queue, tenants, capacity-ledger utilization
//	GET  /updates/{id}               update lifecycle by admission id, or cost report by span id
//	GET  /state?at=1234              time-travel observed-state snapshot (omit at for now)
//	GET  /drift                      desired-vs-observed drift report per update
//	GET  /links/R1/R2/timeline?since=0   one link's utilization timeseries
//	POST /advance  {"ticks": 100}    advance virtual time
//	POST /update   {"method": "chronus"}   any registered scheme, or "tp"; "async": true for 202+id
//
// Update methods come from the scheme registry (internal/scheme): the
// daemon plans with the named scheme and executes whatever shape it
// returns — timed schedules time-triggered, round sequences barrier-paced.
//
// With -debug-addr a second listener additionally serves net/http/pprof
// and expvar on the standard /debug/ paths.
package main

import (
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"github.com/chronus-sdn/chronus/internal/buildinfo"
	"github.com/chronus-sdn/chronus/internal/journal"
	"github.com/chronus-sdn/chronus/internal/ofp"
	"github.com/chronus-sdn/chronus/internal/switchd"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "REST listen address")
	seed := flag.Int64("seed", 1, "seed for control latency and clock ensemble")
	debugAddr := flag.String("debug-addr", "", "listen address for pprof and expvar (empty disables)")
	virtual := flag.Bool("virtual", false, "run switch agents in-process over virtual sessions instead of TCP (deterministic)")
	journalDir := flag.String("journal-dir", "", "directory for the durable trace journal (empty disables)")
	journalFsync := flag.String("journal-fsync", "rotate", "journal fsync policy: rotate, never, always")
	queueCap := flag.Int("queue-cap", 0, "admission queue bound (0 = default 256)")
	window := flag.Int("window", 0, "admission coalescing window per planning wave (0 = default 64)")
	execHeadroom := flag.Int64("exec-headroom", 0, "ticks of headroom before a timed schedule's first activation (0 = default 50)")
	logLevel := flag.String("log-level", "info", "slog level: debug, info, warn, error")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.String("chronusd"))
		return
	}

	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintln(os.Stderr, "chronusd:", err)
		os.Exit(1)
	}
	log := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))

	fsync, err := journal.ParseFsync(*journalFsync)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chronusd:", err)
		os.Exit(1)
	}
	srv, err := newServer(serverOptions{
		Seed: *seed, Virtual: *virtual, Wall: true, Log: log,
		JournalDir: *journalDir, JournalFsync: fsync,
		QueueCap: *queueCap, Window: *window,
		ExecHeadroom: *execHeadroom,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "chronusd:", err)
		os.Exit(1)
	}
	defer srv.Close()
	if *debugAddr != "" {
		ln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "chronusd:", err)
			os.Exit(1)
		}
		fmt.Printf("chronusd: pprof and expvar on http://%s/debug/\n", ln.Addr())
		go func() { _ = http.Serve(ln, debugHandler()) }()
	}
	fmt.Printf("chronusd: %d switch agents, REST on http://%s\n", srv.agentCount(), *addr)
	if err := http.ListenAndServe(*addr, srv.handler()); err != nil {
		fmt.Fprintln(os.Stderr, "chronusd:", err)
		os.Exit(1)
	}
}

// debugHandler serves the stdlib profiling and variable endpoints on an
// explicit mux (the default mux is avoided so tests can run several
// servers side by side).
func debugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}

// bootAgents starts one TCP listener + agent per switch and connects the
// controller to each, returning the listeners for cleanup.
func bootAgents(srv *server) error {
	in := srv.in
	for _, id := range in.G.Nodes() {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srv.listeners = append(srv.listeners, ln)
		agent := switchd.New(srv.tb.Net, id, srv.clock)
		agent.SetObs(srv.reg, srv.tracer)
		go func() {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				oc := ofp.NewConn(conn)
				agent.SetNotify(func(m ofp.Msg) { _ = oc.Send(m) })
				go func() {
					defer oc.Close()
					_ = switchd.Serve(oc, agent, srv.tb.Do)
				}()
			}
		}()
		// A loopback connect normally completes instantly; the timeout
		// bounds the boot when a listener goroutine wedges.
		conn, err := ofp.DialTimeout(ln.Addr().String(), 5*time.Second)
		if err != nil {
			return err
		}
		conn.SetMeter(srv.meter)
		srv.conns = append(srv.conns, conn)
		name, err := srv.ctl.AttachTCP(id, conn)
		if err != nil {
			return err
		}
		if name != in.G.Name(id) {
			return fmt.Errorf("switch %d announced %q, want %q", id, name, in.G.Name(id))
		}
	}
	return nil
}
