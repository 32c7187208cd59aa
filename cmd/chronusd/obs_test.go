package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	chronus "github.com/chronus-sdn/chronus"
	"github.com/chronus-sdn/chronus/internal/api"
	"github.com/chronus-sdn/chronus/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

// TestDaemonResponseHeaders pins the caching contract for every GET
// endpoint: live JSON state must never be cached, the exposition and
// trace stream carry their own media types, and the dashboard is HTML.
func TestDaemonResponseHeaders(t *testing.T) {
	_, ts := newTestServer(t)
	tests := []struct {
		path        string
		contentType string
	}{
		{"/status", "application/json"},
		{"/topology", "application/json"},
		{"/links", "application/json"},
		{"/switches/R1/rules", "application/json"},
		{"/bandwidth?from=R1&to=R2&interval=50&samples=1", "application/json"},
		{"/packetins", "application/json"},
		{"/schemes", "application/json"},
		{"/spans", "application/json"},
		{"/health", "application/json"},
		{"/clocks", "application/json"},
		{"/audit", "application/json"},
		{"/state", "application/json"},
		{"/state?at=0", "application/json"},
		{"/drift", "application/json"},
		{"/links/R1/R2/timeline", "application/json"},
		{"/trace?limit=5", "application/json"},
		{"/trace", "application/x-ndjson"},
		{"/metrics", "text/plain; version=0.0.4; charset=utf-8"},
		{"/dash", "text/html; charset=utf-8"},
	}
	for _, tc := range tests {
		t.Run(tc.path, func(t *testing.T) {
			resp, err := http.Get(ts.URL + tc.path)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %s", resp.Status)
			}
			if got := resp.Header.Get("Content-Type"); got != tc.contentType {
				t.Errorf("Content-Type = %q, want %q", got, tc.contentType)
			}
			if got := resp.Header.Get("Cache-Control"); got != "no-store" {
				t.Errorf("Cache-Control = %q, want no-store", got)
			}
		})
	}
}

// TestDaemonEndpointTableComplete cross-checks the api table against the
// header test above: a GET endpoint added to the table without a row
// here would silently escape the caching contract.
func TestDaemonEndpointTableComplete(t *testing.T) {
	for _, ep := range api.Endpoints {
		if ep.Method != http.MethodGet {
			continue
		}
		if ep.Doc == "" {
			t.Errorf("endpoint %s %s has no doc string", ep.Method, ep.Path)
		}
	}
}

// TestDaemonSpansGolden pins the /spans response byte for byte in
// deterministic mode (virtual sessions, no wall clock): one chronus
// update on seed 1 must always reconstruct the same span forest.
func TestDaemonSpansGolden(t *testing.T) {
	_, ts := newTestServerOpts(t, serverOptions{Seed: 1, Virtual: true, Wall: false})
	resp, result := postJSON(t, ts.URL+"/update", `{"method": "chronus"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update: %s (%v)", resp.Status, result)
	}
	r, err := http.Get(ts.URL + "/spans")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r.Body)
	r.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "spans_chronus.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("/spans drifted from golden file (re-run with -update to accept):\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestDaemonClocksGolden pins the /clocks response byte for byte in
// deterministic mode: the boot-time probe rounds on seed 1 must always
// yield the same per-switch offset/drift/jitter estimates.
func TestDaemonClocksGolden(t *testing.T) {
	_, ts := newTestServerOpts(t, serverOptions{Seed: 1, Virtual: true, Wall: false})
	r, err := http.Get(ts.URL + "/clocks")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r.Body)
	r.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "clocks_boot.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("/clocks drifted from golden file (re-run with -update to accept):\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	// Virtual sessions carry seeded 1..8-tick latencies, so the barrier
	// RTT estimates must be positive here.
	if !strings.Contains(string(got), `"rtt_ticks": `) || strings.Contains(string(got), `"rtt_ticks": 0`) {
		t.Errorf("virtual-mode RTT estimates missing or zero:\n%s", got)
	}
}

// TestDaemonClocksEndpoint checks the boot probes populate an estimate
// for every switch, with barrier-RTT samples from the probe barriers.
func TestDaemonClocksEndpoint(t *testing.T) {
	srv, ts := newTestServer(t)
	var out struct {
		Clocks []struct {
			Switch     string `json:"switch"`
			Samples    int64  `json:"samples"`
			RTTSamples int64  `json:"rtt_samples"`
			RTTTicks   int64  `json:"rtt_ticks"`
		} `json:"clocks"`
	}
	getJSON(t, ts.URL+"/clocks", &out)
	if len(out.Clocks) != srv.in.G.NumNodes() {
		t.Fatalf("clock estimates for %d switches, want %d", len(out.Clocks), srv.in.G.NumNodes())
	}
	for _, c := range out.Clocks {
		if c.Samples < 2 {
			t.Errorf("switch %s has %d skew samples, want >= 2 boot probes", c.Switch, c.Samples)
		}
		// Over TCP the virtual clock stands still while messages are in
		// flight, so the barrier RTT in ticks is 0 here; virtual mode
		// (the golden test) sees the seeded 1..8-tick latencies.
		if c.RTTSamples < 1 {
			t.Errorf("switch %s has %d rtt samples, want >= 1", c.Switch, c.RTTSamples)
		}
	}
	// The probe flow must leave no rule residue.
	var rules []map[string]any
	getJSON(t, ts.URL+"/switches/R1/rules", &rules)
	for _, ru := range rules {
		if key, ok := ru["Key"].(map[string]any); ok && key["Flow"] == "clockprobe" {
			t.Fatalf("probe rule left behind: %v", rules)
		}
	}
}

// TestDaemonSpanTreeConnected drives a timed update through the real TCP
// agents and checks that the whole pipeline — solve, plan, execution,
// per-switch delivery and activation — reconstructs as ONE tree under the
// root update span, with the switch-side spans linked across the process
// boundary by OFP transaction id.
func TestDaemonSpanTreeConnected(t *testing.T) {
	_, ts := newTestServer(t)
	resp, result := postJSON(t, ts.URL+"/update", `{"method": "chronus"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update: %s (%v)", resp.Status, result)
	}
	var got struct {
		Spans []*chronus.SpanNode `json:"spans"`
	}
	getJSON(t, ts.URL+"/spans", &got)

	var root *chronus.SpanNode
	for _, n := range got.Spans {
		if n.Op == "update" {
			if root != nil {
				t.Fatal("more than one update root span")
			}
			root = n
		}
	}
	if root == nil {
		t.Fatalf("no update root span in forest of %d roots", len(got.Spans))
	}
	ops := map[string]int{}
	switches := map[string]bool{}
	root.Walk(func(n *chronus.SpanNode) {
		ops[n.Op]++
		if sw := n.Attr("switch"); sw != "" && strings.HasPrefix(n.Op, "sw.") {
			switches[sw] = true
		}
		if n.End < n.Start {
			t.Errorf("span %d (%s) ends before it starts: [%d, %d]", n.ID, n.Op, n.Start, n.End)
		}
	})
	for _, op := range []string{"solve", "plan", "ctl.execute", "ctl.send", "sw.recv", "sw.apply"} {
		if ops[op] == 0 {
			t.Errorf("update tree missing %q spans (got %v)", op, ops)
		}
	}
	// A chronus update reprograms the five interior switches; each must
	// contribute switch-side spans to the same tree.
	if len(switches) < 5 {
		t.Errorf("switch-side spans from %d switches under the root, want >= 5: %v", len(switches), switches)
	}
	if ops["sw.apply"] < 5 {
		t.Errorf("sw.apply count = %d, want >= 5", ops["sw.apply"])
	}
}

// TestDaemonHealthEndpoint covers the verdict lifecycle: OK while idle, a
// clean chronus plan stays OK, and a best-effort oneshot plan whose own
// validation fails flips CRIT at plan time — before the auditor has any
// events to flag.
func TestDaemonHealthEndpoint(t *testing.T) {
	type verdict struct {
		Level    string   `json:"level"`
		Reasons  []string `json:"reasons"`
		Switches []struct {
			Switch      string `json:"switch"`
			MarginTicks int64  `json:"margin_ticks"`
		} `json:"switches"`
	}

	t.Run("idle-ok", func(t *testing.T) {
		_, ts := newTestServer(t)
		var v verdict
		getJSON(t, ts.URL+"/health", &v)
		if v.Level != "OK" {
			t.Fatalf("idle verdict = %+v", v)
		}
	})

	t.Run("chronus-ok", func(t *testing.T) {
		_, ts := newTestServer(t)
		resp, result := postJSON(t, ts.URL+"/update", `{"method": "chronus"}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("update: %s (%v)", resp.Status, result)
		}
		var v verdict
		getJSON(t, ts.URL+"/health", &v)
		if v.Level == "CRIT" {
			t.Fatalf("clean chronus update went CRIT: %+v", v)
		}
		if len(v.Switches) == 0 {
			t.Fatalf("no per-switch margins after a timed update: %+v", v)
		}
	})

	t.Run("oneshot-crit", func(t *testing.T) {
		_, ts := newTestServer(t)
		resp, result := postJSON(t, ts.URL+"/update", `{"method": "oneshot"}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("update: %s (%v)", resp.Status, result)
		}
		var v verdict
		getJSON(t, ts.URL+"/health", &v)
		if v.Level != "CRIT" {
			t.Fatalf("oneshot update verdict = %+v, want CRIT", v)
		}
		found := false
		for _, r := range v.Reasons {
			if strings.Contains(r, "plan") {
				found = true
			}
		}
		if !found {
			t.Fatalf("CRIT reasons do not mention the invalid plan: %v", v.Reasons)
		}
	})
}

// TestDaemonHealthJudgesOnlyThePlan pins that arming a plan folds the
// trace first: the two boot clock-probe rounds fire a timed no-op on
// every switch, and those applies (and their skews) belong to no plan.
// After one chronus update each planned switch has applied exactly once,
// and its all-time worst skew is that one apply's.
func TestDaemonHealthJudgesOnlyThePlan(t *testing.T) {
	srv, ts := newTestServerOpts(t, serverOptions{Seed: 1, Virtual: true})
	if resp, result := postJSON(t, ts.URL+"/update", `{"method": "chronus"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("update: %s (%v)", resp.Status, result)
	}
	var v struct {
		Switches []struct {
			Switch    string `json:"switch"`
			Applies   int64  `json:"applies"`
			WorstEver int64  `json:"worst_skew_ever_ticks"`
		} `json:"switches"`
	}
	getJSON(t, ts.URL+"/health", &v)
	if len(v.Switches) == 0 {
		t.Fatal("no per-switch margins after a timed update")
	}
	skew := map[string]int64{}
	for _, e := range srv.tracer.Events(0) {
		if e.Name != obs.EvSwApply || e.Attr(obs.KeyKey) != srv.flow.Name+"/0" {
			continue
		}
		s := e.AttrInt(obs.KeySkew)
		if s < 0 {
			s = -s
		}
		skew[e.Attr(obs.KeySwitch)] = max(skew[e.Attr(obs.KeySwitch)], s)
	}
	for _, sw := range v.Switches {
		if sw.Applies != 1 {
			t.Errorf("switch %s: applies = %d, want 1 (boot probe fires leaked into the plan)", sw.Switch, sw.Applies)
		}
		if sw.WorstEver != skew[sw.Switch] {
			t.Errorf("switch %s: worst skew ever = %d, want the update's own %d", sw.Switch, sw.WorstEver, skew[sw.Switch])
		}
	}
}

// TestDaemonDashEndpoint checks the embedded dashboard ships and wires
// itself to the live endpoints.
func TestDaemonDashEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/dash")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	page := string(body)
	for _, want := range []string{"<!DOCTYPE html>", "fetch(\"/health\")", "fetch(\"/clocks\")", "fetch(\"/drift\")", "fetch(\"/spans\")", "chronusd"} {
		if !strings.Contains(page, want) {
			t.Fatalf("dashboard missing %q", want)
		}
	}
}

// lockedBuffer is an io.Writer a test can read while handlers still log.
type lockedBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestDaemonPullCountsRingEvictions: when the tracer ring evicts events
// between two /clocks or two /health reads, the fold that comes up short
// says by exactly how much. (The state store already did; the clock and
// health folds used to read tracer.Events and skip the gap silently.)
func TestDaemonPullCountsRingEvictions(t *testing.T) {
	var logs lockedBuffer
	srv, ts := newTestServerOpts(t, serverOptions{
		Seed: 1, Virtual: true, TraceCap: 32,
		Log: slog.New(slog.NewTextHandler(&logs, nil)),
	})
	var discard any
	getJSON(t, ts.URL+"/clocks", &discard)
	getJSON(t, ts.URL+"/health", &discard)
	if resp, result := postJSON(t, ts.URL+"/update", `{"method": "chronus"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("update: %s (%v)", resp.Status, result)
	}
	clocksGap := srv.tracer.PageStats(srv.clocks.Cursor(), 0).Skipped
	healthGap := srv.tracer.PageStats(srv.health.Cursor(), 0).Skipped
	if clocksGap == 0 || healthGap == 0 {
		t.Fatal("TraceCap 32 did not force eviction between the reads; the test is vacuous")
	}
	before := logs.String()
	getJSON(t, ts.URL+"/clocks", &discard)
	getJSON(t, ts.URL+"/health", &discard)
	after := strings.TrimPrefix(logs.String(), before)
	for _, want := range []string{
		fmt.Sprintf("consumer=clocks skipped=%d", clocksGap),
		fmt.Sprintf("consumer=health skipped=%d", healthGap),
	} {
		if strings.Count(after, want) != 1 {
			t.Errorf("log after the second reads lacks exactly one %q:\n%s", want, after)
		}
	}
}
