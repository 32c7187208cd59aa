package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	chronus "github.com/chronus-sdn/chronus"
	"github.com/chronus-sdn/chronus/internal/admit"
	"github.com/chronus-sdn/chronus/internal/api"
	"github.com/chronus-sdn/chronus/internal/audit"
	"github.com/chronus-sdn/chronus/internal/baseline"
	"github.com/chronus-sdn/chronus/internal/buildinfo"
	"github.com/chronus-sdn/chronus/internal/clock"
	"github.com/chronus-sdn/chronus/internal/controller"
	"github.com/chronus-sdn/chronus/internal/health"
	"github.com/chronus-sdn/chronus/internal/journal"
	"github.com/chronus-sdn/chronus/internal/obs"
	"github.com/chronus-sdn/chronus/internal/ofp"
	"github.com/chronus-sdn/chronus/internal/state"
)

// serverOptions configures a daemon instance.
type serverOptions struct {
	// Seed drives the control-latency model and the clock ensemble.
	Seed int64
	// Virtual runs the switch agents in-process on seeded virtual
	// sessions instead of TCP sockets. Combined with Wall=false the
	// whole daemon — trace stream and span forest included — is
	// byte-deterministic for a fixed seed, which is what the golden
	// tests and -deterministic runs use.
	Virtual bool
	// Wall stamps trace events with wall-clock time (the default for a
	// live daemon; off in deterministic mode).
	Wall bool
	// Log receives structured request and update logs; nil discards.
	Log *slog.Logger
	// TraceCap bounds the tracer ring (0 = the tracer's default). Tests
	// use tiny rings to exercise paging under eviction.
	TraceCap int
	// JournalDir, when set, attaches a durable journal to the tracer:
	// every trace event is appended to size-rotated JSONL segments in
	// this directory, surviving ring eviction and daemon crashes.
	JournalDir string
	// JournalFsync is the journal durability policy (rotate, never,
	// always; see internal/journal).
	JournalFsync journal.Fsync
	// JournalSegmentBytes overrides the journal segment rotation size
	// (0 = the journal's default). Tests use tiny segments.
	JournalSegmentBytes int64
	// QueueCap bounds the admission queue (0 = the admit engine's
	// default of 256).
	QueueCap int
	// Window is the admission coalescing window: how many queued
	// updates one planning wave covers (0 = the default of 64).
	Window int
	// StateRing bounds the observed-state store's per-link timeline
	// ring (0 = the store's default). Tests use tiny rings to exercise
	// journal backfill.
	StateRing int
	// ExecHeadroom is how many ticks past "now" a timed schedule's
	// first activation is shifted to clear the control latency
	// (0 = controller.Headroom). Crash tests raise it so a kill lands
	// mid-schedule deterministically.
	ExecHeadroom int64
}

// server holds the daemon's state: the emulated network, its switch agents
// (reachable over TCP, or in-process in virtual mode), the controller, and
// the flow being managed.
type server struct {
	in      *chronus.Instance
	tb      *chronus.Testbed
	ctl     *chronus.Controller
	clock   *chronus.ClockEnsemble
	flow    chronus.FlowSpec
	reg     *chronus.MetricsRegistry
	tracer  *chronus.Tracer
	meter   *ofp.ConnMeter
	health  *health.Engine
	clocks  *clock.Estimator
	journal *journal.Writer
	admit   *admit.Engine
	state   *state.Store
	log     *slog.Logger

	// linkCaps maps directed link names ("A>B") to provisioned
	// capacity — the timeline endpoint's existence check.
	linkCaps map[string]int64
	// headroom is the tick offset timed schedules are shifted by.
	headroom int64

	virtual bool
	mu      sync.Mutex
	updated bool
	costs   map[uint64]*updateCost
	// arrivals records when an admitted execute-update's HTTP request
	// entered the handler (the cost meter's queue-wait origin); execs
	// holds the executor's ground-truth outcome for the synchronous
	// handler's response. Both are keyed by admission id.
	arrivals map[uint64]time.Time
	execs    map[uint64]execResult

	listeners []net.Listener
	conns     []*ofp.Conn
}

func newServer(o serverOptions) (*server, error) {
	if o.Log == nil {
		o.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	in := chronus.EmulationTopo()
	tb := chronus.NewTestbed(in.G)
	reg := chronus.NewMetricsRegistry()
	// Pre-register every family so /metrics is complete from boot, before
	// the first update or validation touches an instrument.
	chronus.RegisterAllMetrics(reg)
	buildinfo.Register(reg)
	obs.RegisterRuntimeMetrics(reg)
	reg.Help("chronus_trace_dropped_events_total", "Trace events evicted from the tracer ring buffer.")
	journal.RegisterMetrics(reg)
	var wall func() int64
	if o.Wall {
		wall = func() int64 { return time.Now().UnixNano() }
	}
	var jw *journal.Writer
	var bootEvents []obs.Event
	if o.JournalDir != "" {
		// Read whatever earlier daemon runs left in the journal BEFORE
		// attaching the new writer: the observed-state store prefeeds
		// these so half-executed schedules of a dead run surface as
		// stranded in GET /drift. A missing or empty directory is a
		// fresh start, not an error.
		if evs, _, err := journal.ReadAll(o.JournalDir, 0); err == nil {
			bootEvents = evs
		}
		var err error
		jw, err = journal.Open(journal.Options{
			Dir:          o.JournalDir,
			SegmentBytes: o.JournalSegmentBytes,
			Fsync:        o.JournalFsync,
			Obs:          reg,
		})
		if err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
	}
	var sink obs.Sink
	if jw != nil {
		sink = jw
	}
	tracer := chronus.NewTracer(chronus.TracerOptions{
		Wall:  wall,
		Cap:   o.TraceCap,
		Drops: reg.Counter("chronus_trace_dropped_events_total"),
		Sink:  sink,
	})
	in.Obs = reg
	srv := &server{
		in:       in,
		tb:       tb,
		ctl:      chronus.NewController(tb, chronus.ControllerOptions{Seed: o.Seed, Obs: reg, Trace: tracer}),
		clock:    chronus.NewClockEnsemble(chronus.DefaultClockParams(o.Seed), in.G.Nodes()),
		flow:     chronus.FlowSpec{Name: "agg", Tag: 0, Path: in.Init, Rate: chronus.Rate(in.Demand)},
		reg:      reg,
		tracer:   tracer,
		meter:    ofp.NewConnMeter(reg),
		health:   health.New(reg),
		clocks:   clock.New(reg),
		journal:  jw,
		log:      o.Log,
		virtual:  o.Virtual,
		costs:    make(map[uint64]*updateCost),
		arrivals: make(map[uint64]time.Time),
		execs:    make(map[uint64]execResult),
	}
	if srv.headroom = o.ExecHeadroom; srv.headroom <= 0 {
		srv.headroom = controller.Headroom
	}
	srv.state = state.New(state.Options{
		JournalDir: o.JournalDir,
		RingCap:    o.StateRing,
		Obs:        reg,
	})
	if len(bootEvents) > 0 {
		srv.state.Prefeed(bootEvents)
		// The live tracer starts its sequence numbers over; mark the
		// boundary explicitly so the first live event cannot be folded
		// into the dead run.
		srv.state.BeginRun()
	}
	srv.registerStageMetrics()
	tb.Net.SetObs(reg, tracer)
	srv.linkCaps = map[string]int64{}
	tb.Do(func() {
		for _, l := range tb.Net.Links() {
			srv.linkCaps[in.G.Name(l.From())+">"+in.G.Name(l.To())] = int64(l.Capacity())
		}
	})
	if o.Virtual {
		srv.ctl.AttachAll(srv.clock)
	} else if err := bootAgents(srv); err != nil {
		srv.Close()
		return nil, err
	}
	if err := srv.ctl.Provision(srv.flow); err != nil {
		srv.Close()
		return nil, err
	}
	srv.health.SetClock(srv.clocks)
	// Boot-time clock probes: two rounds of timed no-op fires seed the
	// per-switch estimators (offset, drift, jitter, barrier RTT) before
	// the first update, inside the same settling window as before.
	now := srv.tb.Now()
	for _, at := range []chronus.SimTime{now + 60, now + 120} {
		if err := srv.ctl.ProbeClocks("clockprobe", at, in.G.Nodes()...); err != nil {
			srv.Close()
			return nil, fmt.Errorf("clock probe: %w", err)
		}
	}
	srv.tb.AdvanceBy(200)
	// The probes have fired; drop their no-op rules so switch tables
	// show only real flows, and fold the probe samples into estimates.
	if err := srv.ctl.DeleteFlow("clockprobe", in.G.Nodes()...); err != nil {
		srv.Close()
		return nil, fmt.Errorf("clock probe cleanup: %w", err)
	}
	srv.pull()
	// The admission pipeline: every POST /update goes through this
	// engine, which debits the shared capacity ledger at plan time,
	// plans disjoint updates in parallel, and batches conflicting ones
	// through the joint validator. Single-proc planning in virtual mode
	// keeps the trace byte-deterministic per seed.
	procs := 0
	if o.Virtual && !o.Wall {
		procs = 1
	}
	srv.admit = admit.New(in.G, admit.Options{
		QueueCap: o.QueueCap,
		Window:   o.Window,
		Procs:    procs,
		Obs:      reg,
		Trace:    tracer,
		Now:      func() int64 { return int64(tb.Now()) },
		Execute:  srv.executeAdmitted,
	})
	srv.health.SetQueue(queueAdapter{srv.admit})
	srv.health.SetDrift(driftAdapter{srv})
	return srv, nil
}

func (s *server) agentCount() int {
	if s.virtual {
		return s.in.G.NumNodes()
	}
	return len(s.conns)
}

// Close shuts the TCP plumbing down and settles the journal (drain,
// sync, close the open segment).
func (s *server) Close() {
	for _, c := range s.conns {
		c.Close()
	}
	for _, ln := range s.listeners {
		ln.Close()
	}
	if s.journal != nil {
		if err := s.journal.Close(); err != nil {
			s.log.Error("journal close", "err", err)
		}
	}
}

// handler builds the mux from the api package's endpoint table — the
// same table docs_test.go holds the README to — and panics at boot
// when the table and the wired handlers disagree in either direction.
func (s *server) handler() http.Handler {
	handlers := map[string]http.HandlerFunc{
		"GET /status":                     s.handleStatus,
		"GET /topology":                   s.handleTopology,
		"GET /links":                      s.handleLinks,
		"GET /switches/{name}/rules":      s.handleRules,
		"GET /bandwidth":                  s.handleBandwidth,
		"GET /packetins":                  s.handlePacketIns,
		"GET /metrics":                    s.handleMetrics,
		"GET /trace":                      s.handleTrace,
		"GET /spans":                      s.handleSpans,
		"GET /health":                     s.handleHealth,
		"GET /clocks":                     s.handleClocks,
		"GET /audit":                      s.handleAudit,
		"GET /schemes":                    s.handleSchemes,
		"GET /dash":                       s.handleDash,
		"GET /watch":                      s.handleWatch,
		"GET /queue":                      s.handleQueue,
		"GET /updates/{id}":               s.handleUpdates,
		"GET /state":                      s.handleState,
		"GET /drift":                      s.handleDrift,
		"GET /links/{from}/{to}/timeline": s.handleLinkTimeline,
		"POST /advance":                   s.handleAdvance,
		"POST /update":                    s.handleUpdate,
	}
	mux := http.NewServeMux()
	for _, ep := range api.Endpoints {
		pat := ep.Method + " " + ep.Path
		h, ok := handlers[pat]
		if !ok {
			panic("chronusd: endpoint table lists " + pat + " but no handler is wired")
		}
		mux.HandleFunc(pat, h)
		delete(handlers, pat)
	}
	for pat := range handlers {
		panic("chronusd: handler " + pat + " is missing from the api endpoint table")
	}
	return s.logged(mux)
}

// logged wraps the mux with slog request logging.
func (s *server) logged(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(rec, r)
		s.log.Info("http",
			"method", r.Method, "path", r.URL.Path,
			"status", rec.status, "dur", time.Since(start).Round(time.Microsecond))
	})
}

type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.ResponseController reach the underlying writer's
// Flush (the /watch stream needs it through the logging wrapper).
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// pull folds the trace events recorded since each consumer's last look
// into it — cursor-style, on read, so the update hot path never pays
// for a fold. Every read folds every consumer, so what a fold holds
// never depends on which endpoint was read last. Events the ring
// evicted before a consumer could fold them are lost to it (the
// journal, when configured, still has them): every such gap is logged,
// and the state store also reports it as missed_events in its
// snapshots.
func (s *server) pull() {
	page := func(consumer string, cursor uint64) obs.PageStats {
		ps := s.tracer.PageStats(cursor, 0)
		if ps.Skipped > 0 {
			s.log.Warn("trace ring evicted events before they were folded",
				"consumer", consumer, "skipped", ps.Skipped)
		}
		return ps
	}
	s.clocks.Observe(page("clocks", s.clocks.Cursor()).Events)
	s.health.Observe(page("health", s.health.Cursor()).Events)
	ps := page("state", s.state.Cursor())
	s.state.NoteSkipped(ps.Skipped)
	s.state.Observe(ps.Events)
}

// arm holds the health engine to plan p. Everything recorded before
// now — boot clock probes, the previous update's applies — is folded
// first, so it lands in the previous plan's margins and never in p's.
func (s *server) arm(p health.Plan) {
	s.pull()
	s.health.SetPlan(p)
}

// handleSpans returns the causal span forest reconstructed from the
// trace ring. ?since= and ?limit= page through the underlying events
// exactly like /trace (limit bounds events read, not spans returned);
// the next cursor resumes where this page stopped, and "skipped"
// reports how many events between the cursor and this page the ring
// evicted before they could be served. In deterministic (virtual,
// no-wall) mode the response bytes are fixed per seed.
func (s *server) handleSpans(w http.ResponseWriter, r *http.Request) {
	since, limit, err := parsePaging(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	ps := s.tracer.PageStats(since, limit)
	writeJSON(w, http.StatusOK, map[string]any{
		"spans":   chronus.BuildSpanForest(ps.Events),
		"next":    ps.Next,
		"skipped": ps.Skipped,
		"dropped": ps.Dropped,
	})
}

// handleHealth folds any trace events recorded since the last look
// into the health engine (and the clock estimator its predictive
// rules read from) and returns the verdict.
func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.pull()
	writeJSON(w, http.StatusOK, s.health.Verdict())
}

// handleClocks folds fresh trace events into the per-switch clock
// estimators and returns their current offset/drift/jitter estimates.
// In deterministic (virtual, no-wall) mode the response bytes are
// fixed per seed.
func (s *server) handleClocks(w http.ResponseWriter, r *http.Request) {
	s.pull()
	writeJSON(w, http.StatusOK, map[string]any{
		"now":    s.tb.Now(),
		"clocks": s.clocks.Estimates(),
	})
}

// parsePaging reads the shared ?since= / ?limit= query parameters.
func parsePaging(r *http.Request) (since uint64, limit int, err error) {
	if q := r.URL.Query().Get("since"); q != "" {
		since, err = strconv.ParseUint(q, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("bad since: %w", err)
		}
	}
	if q := r.URL.Query().Get("limit"); q != "" {
		limit, err = strconv.Atoi(q)
		if err != nil || limit <= 0 {
			return 0, 0, errors.New("bad limit: want a positive integer")
		}
	}
	return since, limit, nil
}

// handleSchemes lists the registered scheduler names plus the methods
// POST /update accepts (every scheme, and "tp" — two-phase commit is an
// execution strategy with no planning step, not a scheme).
func (s *server) handleSchemes(w http.ResponseWriter, r *http.Request) {
	schemes := chronus.Schemes()
	writeJSON(w, http.StatusOK, map[string]any{
		"schemes":        schemes,
		"update_methods": append(schemes, "tp"),
	})
}

// handleAudit replays the full recorded trace through the consistency
// auditor and returns its report: reconstructed congestion intervals and
// forwarding loops with per-violation evidence, the cross-check against
// the emulator's own overload spans, and the critical path of the last
// timed update.
func (s *server) handleAudit(w http.ResponseWriter, r *http.Request) {
	a := audit.New()
	a.Feed(s.tracer.Events(0)...)
	writeJSON(w, http.StatusOK, a.Report())
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Refresh the health and clock gauges so a scrape that never touches
	// /health or /clocks still sees current margins and estimates.
	s.pull()
	s.clocks.Estimates()
	s.health.Verdict()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Header().Set("Cache-Control", "no-store")
	_ = s.reg.WritePrometheus(w)
}

// handleTrace streams the recorded trace events as JSON Lines; ?since=N
// skips events with sequence numbers <= N, so pollers can tail the ring
// incrementally. With ?limit=N the response is instead a JSON envelope
// holding at most N events, the cursor to pass as since on the next
// page, the count of events between the cursor and this page that the
// ring evicted unserved ("skipped"), and the tracer's total eviction
// count — all captured atomically, so a client summing skipped across
// pages accounts for every sequence number it never received.
func (s *server) handleTrace(w http.ResponseWriter, r *http.Request) {
	since, limit, err := parsePaging(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if limit > 0 {
		ps := s.tracer.PageStats(since, limit)
		writeJSON(w, http.StatusOK, map[string]any{
			"events":  ps.Events,
			"next":    ps.Next,
			"skipped": ps.Skipped,
			"dropped": ps.Dropped,
		})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Chronus-Trace-Dropped", strconv.FormatUint(s.tracer.Dropped(), 10))
	_ = s.tracer.WriteJSONL(w, since)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	// Every JSON endpoint reports live state; a cached response is
	// always wrong.
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *server) handlePacketIns(w http.ResponseWriter, r *http.Request) {
	type pin struct {
		Switch string `json:"switch"`
		Flow   string `json:"flow"`
		Tag    uint16 `json:"tag"`
		Reason string `json:"reason"`
	}
	out := []pin{}
	for _, p := range s.ctl.PacketIns() {
		reason := "no-match"
		if p.Reason == ofp.ReasonTTLExpired {
			reason = "ttl-expired"
		}
		out = append(out, pin{
			Switch: s.in.G.Name(chronus.NodeID(p.SwitchID)),
			Flow:   p.Flow,
			Tag:    p.Tag,
			Reason: reason,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	updated := s.updated
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"now":             s.tb.Now(),
		"switches":        s.in.G.NumNodes(),
		"links":           s.in.G.NumLinks(),
		"agents":          s.agentCount(),
		"updated":         updated,
		"congested_links": s.tb.Net.CongestedLinks(),
	})
}

func (s *server) handleTopology(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"graph":   s.in.G,
		"initial": s.in.Init.Format(s.in.G),
		"final":   s.in.Fin.Format(s.in.G),
		"demand":  s.in.Demand,
	})
}

// handleLinks reports per-link load. The default live body documents
// the rate semantics explicitly: "rate" is the instantaneous total at
// the current tick, "peak" the highest total ever observed on the
// link. ?at=<tick> serves a time-travel snapshot and ?since=<tick> the
// per-link history, both folded from the observed-state store (the
// HTTP surface over emu.Link.Timeline()); the two are mutually
// exclusive.
func (s *server) handleLinks(w http.ResponseWriter, r *http.Request) {
	atQ, sinceQ := r.URL.Query().Get("at"), r.URL.Query().Get("since")
	if atQ != "" && sinceQ != "" {
		writeErr(w, http.StatusBadRequest, errBadQuery)
		return
	}
	if atQ != "" {
		at, err := parseTick(r, "at", -1)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		s.pull()
		snap := s.state.StateBody(at)
		writeJSON(w, http.StatusOK, map[string]any{
			"run": snap.Run, "at": snap.At, "links": snap.Links,
		})
		return
	}
	if sinceQ != "" {
		since, err := parseTick(r, "since", 0)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		s.pull()
		type linkHistory struct {
			Link     string                `json:"link"`
			Capacity int64                 `json:"capacity"`
			Points   []state.TimelinePoint `json:"points"`
		}
		out := []linkHistory{}
		for _, name := range sortedLinkNames(s.linkCaps) {
			tl, ok := s.state.LinkTimeline(name, since)
			if !ok || len(tl.Points) == 0 {
				continue
			}
			out = append(out, linkHistory{Link: name, Capacity: tl.Capacity, Points: tl.Points})
		}
		writeJSON(w, http.StatusOK, map[string]any{"since": since, "links": out})
		return
	}
	type linkInfo struct {
		From     string `json:"from"`
		To       string `json:"to"`
		Capacity int64  `json:"capacity"`
		// Rate is the instantaneous total at the current tick; Peak is
		// the highest total ever observed (they diverge as soon as load
		// subsides).
		Rate      int64   `json:"rate"`
		Peak      int64   `json:"peak"`
		Bytes     float64 `json:"bytes"`
		Overloads int     `json:"overloads"`
	}
	var out []linkInfo
	s.tb.Do(func() {
		for _, l := range s.tb.Net.Links() {
			out = append(out, linkInfo{
				From:      s.in.G.Name(l.From()),
				To:        s.in.G.Name(l.To()),
				Capacity:  int64(l.Capacity()),
				Rate:      int64(l.Rate()),
				Peak:      int64(l.Peak()),
				Bytes:     l.Bytes(),
				Overloads: len(l.Overloads()),
			})
		}
	})
	writeJSON(w, http.StatusOK, out)
}

// sortedLinkNames returns the topology's directed link names in
// ascending order (response bodies are golden-pinned).
func sortedLinkNames(caps map[string]int64) []string {
	names := make([]string, 0, len(caps))
	for name := range caps {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func (s *server) handleRules(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	id := s.in.G.Lookup(name)
	if id == chronus.Invalid {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no switch %q", name))
		return
	}
	var rules any
	s.tb.Do(func() {
		rules = s.tb.Net.Switch(id).DumpRules()
	})
	writeJSON(w, http.StatusOK, rules)
}

func (s *server) handleBandwidth(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	from := s.in.G.Lookup(q.Get("from"))
	to := s.in.G.Lookup(q.Get("to"))
	if from == chronus.Invalid || to == chronus.Invalid {
		writeErr(w, http.StatusBadRequest, errors.New("unknown from/to switch"))
		return
	}
	interval, _ := strconv.Atoi(q.Get("interval"))
	if interval <= 0 {
		interval = 50
	}
	samples, _ := strconv.Atoi(q.Get("samples"))
	if samples <= 0 || samples > 1000 {
		samples = 10
	}
	out, err := s.ctl.SampleLink(from, to, chronus.SimTime(interval), samples)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *server) handleAdvance(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Ticks int64 `json:"ticks"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Ticks <= 0 || req.Ticks > 1_000_000 {
		writeErr(w, http.StatusBadRequest, errors.New("body must be {\"ticks\": 1..1000000}"))
		return
	}
	s.tb.AdvanceBy(chronus.SimTime(req.Ticks))
	writeJSON(w, http.StatusOK, map[string]any{"now": s.tb.Now()})
}

// handleUpdate enqueues the request on the admission engine. The
// response stays synchronous by default — submit, then wait for the
// terminal state, so existing clients keep their one-shot semantics —
// while {"async": true} returns 202 with the admission id immediately
// (the id is registered before Submit returns, so a GET /updates/{id}
// issued right away can never 404).
func (s *server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	arrived := time.Now()
	var req updateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	areq, err := s.admitRequest(&req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if areq.Execute {
		// The emulated aggregate flow migrates once per daemon life; the
		// slot is claimed at enqueue so a concurrent second POST gets the
		// 409 before it can double-migrate.
		s.mu.Lock()
		if s.updated {
			s.mu.Unlock()
			writeErr(w, http.StatusConflict, errors.New("flow already migrated; restart the daemon"))
			return
		}
		s.updated = true
		s.mu.Unlock()
	}
	id, err := s.admit.Submit(areq)
	if err != nil {
		if areq.Execute {
			s.mu.Lock()
			s.updated = false
			s.mu.Unlock()
		}
		status := http.StatusBadRequest
		if errors.Is(err, admit.ErrQueueFull) {
			status = http.StatusTooManyRequests
		}
		writeErr(w, status, err)
		return
	}
	if areq.Execute {
		s.mu.Lock()
		s.arrivals[id] = arrived
		s.mu.Unlock()
	}
	if req.Async {
		w.Header().Set("Location", fmt.Sprintf("/updates/%d", id))
		writeJSON(w, http.StatusAccepted, map[string]any{"id": id, "state": "queued"})
		// Async clients poll instead of waiting, so the handler pumps the
		// wave planner itself; planMu serializes concurrent drains.
		go s.admit.Drain()
		return
	}
	view, err := s.admit.Wait(r.Context(), id)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	switch view.State {
	case "failed":
		writeErr(w, http.StatusBadRequest, errors.New(view.Reason))
	case "refused":
		writeErr(w, http.StatusConflict, fmt.Errorf("refused: %s", view.Reason))
	default:
		if areq.Execute {
			s.mu.Lock()
			out := s.execs[id]
			delete(s.execs, id)
			s.mu.Unlock()
			writeJSON(w, http.StatusOK, map[string]any{
				"id":              id,
				"state":           view.State,
				"method":          req.Method,
				"span":            view.Span,
				"now":             out.Now,
				"congested_links": out.Congested,
				"overload_ticks":  out.OverloadTicks,
				"drops":           out.Drops,
			})
			return
		}
		writeJSON(w, http.StatusOK, view)
	}
}

// executeUpdate wraps the whole update — solve, plan, execution — in
// one root span and logs the outcome; see executePlanned for the
// actual dispatch. The admission id and tenant identify the update in
// the state.intent record the drift detector verifies against. Returns
// the root span id (the key the update's cost report is filed under).
func (s *server) executeUpdate(id uint64, tenant, method string) (chronus.SpanID, error) {
	root := s.tracer.StartSpan(int64(s.tb.Now()), "update", 0, obs.A("method", method))
	s.ctl.SetSpan(root.SpanID())
	err := s.executePlanned(id, tenant, method, root.SpanID())
	s.ctl.SetSpan(0)
	outcome := "ok"
	if err != nil {
		outcome = "error"
	}
	root.End(int64(s.tb.Now()), obs.A("outcome", outcome))
	if err != nil {
		s.log.Error("update failed", "method", method, "span", uint64(root.SpanID()), "err", err)
	} else {
		s.log.Info("update executed", "method", method, "span", uint64(root.SpanID()), "vt", int64(s.tb.Now()))
	}
	return root.SpanID(), err
}

// executePlanned plans the migration with the named registry scheme (the
// solve is recorded under the scheme-labelled metrics counter, and as a
// solve span under root) and executes whatever shape it produced: timed
// schedules run time-triggered, round sequences run barrier-paced, and
// decision-only results have nothing to execute. "tp" is the one
// non-scheme method — two-phase commit plans nothing, so it goes
// straight to the execution engine. Each branch arms the health engine
// with the plan it is about to execute, and records the
// planner-intended end-state (a state.intent event) before the first
// FlowMod goes out so a crash mid-execution leaves provable intent in
// the journal.
func (s *server) executePlanned(id uint64, tenant, method string, root chronus.SpanID) error {
	if method == "tp" {
		s.arm(health.Plan{Kind: "twophase", Valid: true})
		newTag := s.flow.Tag + 1
		s.emitIntent(id, tenant, method, fmt.Sprintf("%s/%d", s.flow.Name, newTag), 0, nil, int64(s.tb.Now()))
		return s.ctl.ExecuteTwoPhase(s.in, s.flow, newTag)
	}
	res, err := chronus.SolveWith(method, s.in, chronus.SchemeOptions{
		Obs: s.reg, Trace: s.tracer, VT: int64(s.tb.Now()), Span: root,
	})
	if errors.Is(err, chronus.ErrUnknownScheme) {
		return fmt.Errorf("unknown method %q (want tp or a scheme: %s)", method, strings.Join(chronus.Schemes(), ", "))
	}
	if err != nil {
		return err
	}
	switch {
	case res.Schedule != nil:
		// The slack promise is computed on the solver's own schedule
		// (shifting every activation by the same start offset changes
		// no relative timing, hence no slack).
		report := res.Report
		if report == nil {
			report = chronus.Validate(s.in, res.Schedule)
		}
		now := int64(s.tb.Now())
		// Headroom past the control latency (configurable so crash
		// tests can park the applies far in the virtual future).
		start := chronus.Tick(now) + chronus.Tick(s.headroom)
		sched := res.Schedule.Shifted(start)
		plan := controller.TimedPlan(s.in, res.Schedule, start, now, report.OK())
		s.arm(plan)
		s.tracer.EmitSpan("plan", root, now, now,
			obs.A("kind", "timed"), obs.A("switches", len(sched.Times)),
			obs.A("start", int64(start)), obs.A("valid", report.OK()))
		s.emitIntent(id, tenant, method, fmt.Sprintf("%s/%d", s.flow.Name, s.flow.Tag),
			minPlanSlack(plan), sched, -1)
		return s.ctl.ExecuteTimed(s.in, sched, s.flow)
	case len(res.Rounds) > 0 && res.Feasible == nil:
		s.arm(health.Plan{Kind: "rounds", Valid: true})
		sched := baseline.ORSchedule(res.Rounds, baseline.ORScheduleOptions{RoundWidth: 1})
		now := int64(s.tb.Now())
		s.tracer.EmitSpan("plan", root, now, now,
			obs.A("kind", "rounds"), obs.A("switches", len(sched.Times)),
			obs.A("rounds", len(res.Rounds)))
		// Barrier-paced rounds carry no per-switch apply ticks; the
		// intent promises the end-state "as of plan time" and converges
		// as the rounds execute.
		s.emitIntent(id, tenant, method, fmt.Sprintf("%s/%d", s.flow.Name, s.flow.Tag), 0, sched, now)
		return s.ctl.ExecuteBarrierPaced(s.in, sched, s.flow, 1)
	default:
		return fmt.Errorf("scheme %q decides feasibility but produces no executable schedule", method)
	}
}
