package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"

	chronus "github.com/chronus-sdn/chronus"
)

func newTestServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	return newTestServerOpts(t, serverOptions{Seed: 1, Wall: true})
}

func newTestServerOpts(t *testing.T, o serverOptions) (*server, *httptest.Server) {
	t.Helper()
	srv, err := newServer(o)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func postJSON(t *testing.T, url, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp, out
}

func TestDaemonEndToEnd(t *testing.T) {
	_, ts := newTestServer(t)

	var status map[string]any
	getJSON(t, ts.URL+"/status", &status)
	if status["switches"].(float64) != 10 || status["agents"].(float64) != 10 {
		t.Fatalf("status = %v", status)
	}

	var topoResp map[string]any
	getJSON(t, ts.URL+"/topology", &topoResp)
	if !strings.HasPrefix(topoResp["initial"].(string), "R1->R2") {
		t.Fatalf("topology = %v", topoResp["initial"])
	}

	var rules []map[string]any
	getJSON(t, ts.URL+"/switches/R1/rules", &rules)
	if len(rules) != 1 {
		t.Fatalf("R1 rules = %v", rules)
	}

	resp, _ := postJSON(t, ts.URL+"/advance", `{"ticks": 100}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("advance: %s", resp.Status)
	}

	var samples []map[string]any
	getJSON(t, ts.URL+"/bandwidth?from=R1&to=R2&interval=50&samples=3", &samples)
	if len(samples) != 3 {
		t.Fatalf("samples = %v", samples)
	}

	resp, result := postJSON(t, ts.URL+"/update", `{"method": "chronus"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update: %s (%v)", resp.Status, result)
	}
	if result["congested_links"].(float64) != 0 || result["drops"].(float64) != 0 {
		t.Fatalf("chronus update violated: %v", result)
	}

	// Second update is refused.
	resp, _ = postJSON(t, ts.URL+"/update", `{"method": "tp"}`)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("second update: %s", resp.Status)
	}

	// Unknown switch is a 404.
	r, err := http.Get(ts.URL + "/switches/nope/rules")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown switch: %s", r.Status)
	}
}

// expositionLine matches the Prometheus text format 0.0.4: comment
// lines (HELP, TYPE, and the registry's EXEMPLAR annotations), blank
// lines, or `name{labels} value`.
var expositionLine = regexp.MustCompile(
	`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .*|# EXEMPLAR [a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? .*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? [0-9eE.+-]+|)$`)

func TestDaemonMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)

	// Drive one update so the scheduler, controller and emulator families
	// all carry non-zero values.
	resp, result := postJSON(t, ts.URL+"/update", `{"method": "chronus"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update: %s (%v)", resp.Status, result)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for i, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if !expositionLine.MatchString(line) {
			t.Fatalf("line %d not valid exposition text: %q", i+1, line)
		}
	}
	// The exposition must cover the controller, scheduler and emulator
	// families (plus the rest of the stack).
	for _, family := range []string{
		"chronus_controller_flowmods_sent_total",
		"chronus_controller_barrier_rtt_ticks_bucket",
		"chronus_scheduler_candidates_total",
		"chronus_scheduler_runs_total",
		"chronus_validator_runs_total",
		"chronus_switchd_flowmods_total",
		"chronus_emu_overloads_total",
		"chronus_ofp_messages_total",
	} {
		if !strings.Contains(text, family) {
			t.Fatalf("exposition missing family %q:\n%s", family, text)
		}
	}
	// A timed chronus update must have scheduled timed FlowMods and run
	// the scheduler exactly once.
	timed := regexp.MustCompile(`chronus_switchd_flowmods_total\{kind="timed"\} (\d+)`).FindStringSubmatch(text)
	if timed == nil || timed[1] == "0" {
		t.Fatalf("no timed FlowMods recorded:\n%s", text)
	}
	if !strings.Contains(text, "chronus_scheduler_runs_total 1") {
		t.Fatalf("scheduler run not recorded:\n%s", text)
	}
}

// TestDaemonReadmeMetricsExist is the doc guard for metric names: after
// one update on a journaling daemon, every chronus_* name README.md
// mentions must occur in the /metrics body (a name ending in "_", like
// chronus_state_, is a family prefix). Retiring a metric without
// editing the README fails here.
func TestDaemonReadmeMetricsExist(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	names := regexp.MustCompile(`chronus_[a-z_]+`).FindAllString(string(readme), -1)
	if len(names) == 0 {
		t.Fatal("README.md names no chronus_* metric; the guard is vacuous")
	}
	_, ts := newTestServerOpts(t, serverOptions{Seed: 1, Virtual: true, JournalDir: t.TempDir()})
	if resp, result := postJSON(t, ts.URL+"/update", `{"method": "chronus"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("update: %s (%v)", resp.Status, result)
	}
	text := getBody(t, ts.URL+"/metrics")
	for _, name := range names {
		if !strings.Contains(text, name) {
			t.Errorf("README.md documents %s, which GET /metrics does not expose", name)
		}
	}
}

func TestDaemonTraceEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	resp, result := postJSON(t, ts.URL+"/update", `{"method": "chronus"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update: %s (%v)", resp.Status, result)
	}

	resp, err := http.Get(ts.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("empty trace")
	}
	var last uint64
	for i, line := range lines {
		var ev struct {
			Seq  uint64 `json:"seq"`
			Name string `json:"name"`
			Wall int64  `json:"wall"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d not JSON: %v", i+1, err)
		}
		if ev.Seq <= last {
			t.Fatalf("line %d seq %d not increasing (prev %d)", i+1, ev.Seq, last)
		}
		if ev.Wall == 0 {
			t.Fatalf("line %d missing wall-clock stamp (daemon tracer runs in wall mode): %s", i+1, line)
		}
		last = ev.Seq
	}

	// since=N resumes after the cursor.
	resp, err = http.Get(fmt.Sprintf("%s/trace?since=%d", ts.URL, last))
	if err != nil {
		t.Fatal(err)
	}
	tail, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(tail)) != "" {
		t.Fatalf("since=%d returned events: %q", last, tail)
	}
	resp, err = http.Get(ts.URL + "/trace?since=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad since: %s", resp.Status)
	}
}

func TestDaemonORUpdateShowsTransients(t *testing.T) {
	_, ts := newTestServer(t)
	resp, result := postJSON(t, ts.URL+"/update", `{"method": "or"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("or update: %s (%v)", resp.Status, result)
	}
	if result["overload_ticks"].(float64) == 0 {
		t.Fatalf("or update showed no transient overload: %v", result)
	}
}

func TestDaemonRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t)
	resp, _ := postJSON(t, ts.URL+"/update", `{"method": "nope"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad method: %s", resp.Status)
	}
	resp, _ = postJSON(t, ts.URL+"/advance", `{"ticks": -5}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad ticks: %s", resp.Status)
	}
}

func TestDaemonTracePaging(t *testing.T) {
	_, ts := newTestServer(t)
	resp, result := postJSON(t, ts.URL+"/update", `{"method": "chronus"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update: %s (%v)", resp.Status, result)
	}

	type page struct {
		Events []struct {
			Seq  uint64 `json:"seq"`
			Name string `json:"name"`
		} `json:"events"`
		Next    uint64 `json:"next"`
		Dropped uint64 `json:"dropped"`
	}
	var p1 page
	getJSON(t, ts.URL+"/trace?limit=5", &p1)
	if len(p1.Events) != 5 || p1.Next != p1.Events[4].Seq {
		t.Fatalf("page 1 = %+v", p1)
	}
	if p1.Dropped != 0 {
		t.Fatalf("dropped = %d, want 0 (ring is far from full)", p1.Dropped)
	}

	// The next page resumes exactly after the cursor.
	var p2 page
	getJSON(t, fmt.Sprintf("%s/trace?since=%d&limit=5", ts.URL, p1.Next), &p2)
	if len(p2.Events) != 5 || p2.Events[0].Seq <= p1.Next {
		t.Fatalf("page 2 = %+v", p2)
	}

	// Walking pages to exhaustion reaches a fixed point: empty page, cursor
	// unchanged.
	cursor := p2.Next
	for i := 0; i < 10000; i++ {
		var p page
		getJSON(t, fmt.Sprintf("%s/trace?since=%d&limit=500", ts.URL, cursor), &p)
		if len(p.Events) == 0 {
			if p.Next != cursor {
				t.Fatalf("empty page moved the cursor: %d -> %d", cursor, p.Next)
			}
			break
		}
		cursor = p.Next
	}

	resp, err := http.Get(ts.URL + "/trace?limit=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("limit=0: %s, want 400", resp.Status)
	}
}

// TestDaemonAuditEndpoint checks the runtime auditor over the daemon's
// real trace: a chronus timed update must audit clean, while an OR
// (barrier-paced) update must be flagged with congestion evidence that
// matches the emulator's own overload spans.
func TestDaemonAuditEndpoint(t *testing.T) {
	type report struct {
		Events     int `json:"events"`
		Congestion []struct {
			Link  string `json:"link"`
			Start int64  `json:"start"`
			End   int64  `json:"end"`
			Peak  int64  `json:"peak"`
		} `json:"congestion"`
		Loops          []map[string]any `json:"loops"`
		Blackholes     []map[string]any `json:"blackholes"`
		EmuOverloads   int              `json:"emu_overloads"`
		DetectorsAgree bool             `json:"detectors_agree"`
		Critical       struct {
			Gating   string `json:"gating"`
			Makespan int64  `json:"makespan"`
		} `json:"critical"`
	}

	t.Run("chronus-clean", func(t *testing.T) {
		_, ts := newTestServer(t)
		resp, result := postJSON(t, ts.URL+"/update", `{"method": "chronus"}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("update: %s (%v)", resp.Status, result)
		}
		var rep report
		getJSON(t, ts.URL+"/audit", &rep)
		if rep.Events == 0 {
			t.Fatal("audit saw no events")
		}
		if len(rep.Congestion)+len(rep.Loops)+len(rep.Blackholes) != 0 {
			t.Fatalf("chronus update flagged: %+v", rep)
		}
		if !rep.DetectorsAgree {
			t.Fatalf("detectors disagree: %+v", rep)
		}
		if rep.Critical.Gating == "" {
			t.Fatalf("no critical path over a timed update: %+v", rep.Critical)
		}
	})

	t.Run("or-flagged", func(t *testing.T) {
		_, ts := newTestServer(t)
		resp, result := postJSON(t, ts.URL+"/update", `{"method": "or"}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("update: %s (%v)", resp.Status, result)
		}
		var rep report
		getJSON(t, ts.URL+"/audit", &rep)
		if len(rep.Congestion) == 0 {
			t.Fatalf("OR update not flagged for congestion: %+v", rep)
		}
		for _, c := range rep.Congestion {
			if c.Link == "" || c.End <= c.Start || c.Peak == 0 {
				t.Fatalf("congestion lacks link/tick evidence: %+v", c)
			}
		}
		if !rep.DetectorsAgree || rep.EmuOverloads != len(rep.Congestion) {
			t.Fatalf("reconstruction disagrees with emulator: agree=%v emu=%d rec=%d",
				rep.DetectorsAgree, rep.EmuOverloads, len(rep.Congestion))
		}
	})
}

func TestDaemonTraceDroppedCounterExposed(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "chronus_trace_dropped_events_total") {
		t.Fatal("exposition missing chronus_trace_dropped_events_total")
	}
	resp, err = http.Get(ts.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Chronus-Trace-Dropped"); got != "0" {
		t.Fatalf("X-Chronus-Trace-Dropped = %q, want 0", got)
	}
}

// TestDaemonSchemesEndpoint checks that /schemes reflects the registry and
// that an /update planned through it lands in the scheme-labelled solve
// counter on /metrics.
func TestDaemonSchemesEndpoint(t *testing.T) {
	_, ts := newTestServer(t)

	var got struct {
		Schemes       []string `json:"schemes"`
		UpdateMethods []string `json:"update_methods"`
	}
	getJSON(t, ts.URL+"/schemes", &got)
	want := chronus.Schemes()
	if len(got.Schemes) != len(want) {
		t.Fatalf("/schemes returned %v, want %v", got.Schemes, want)
	}
	for i, name := range want {
		if got.Schemes[i] != name {
			t.Fatalf("/schemes returned %v, want %v", got.Schemes, want)
		}
	}
	if len(got.UpdateMethods) != len(want)+1 || got.UpdateMethods[len(want)] != "tp" {
		t.Fatalf("update_methods = %v, want schemes plus tp", got.UpdateMethods)
	}

	resp, body := postJSON(t, ts.URL+"/update", `{"method": "chronus-fast"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update: %s: %v", resp.Status, body)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	text, _ := io.ReadAll(mresp.Body)
	wantLine := `chronus_scheme_solve_total{scheme="chronus-fast",outcome="ok"} 1`
	if !strings.Contains(string(text), wantLine) {
		t.Fatalf("/metrics missing %q", wantLine)
	}
}

// TestDaemonUpdateRejectsNonExecutableScheme: on the emulation topology the
// tree check is outside its preconditions (non-uniform delays), and even
// where it runs it decides feasibility without planning anything the
// controller could push — either way /update must refuse with a 400.
func TestDaemonUpdateRejectsNonExecutableScheme(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/update", `{"method": "tree"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("tree update: got %s, want 400 (%v)", resp.Status, body)
	}
	if msg, _ := body["error"].(string); msg == "" {
		t.Fatalf("tree update error = %v", body)
	}
}

// TestDaemonUpdateUnknownMethodListsSchemes checks the registry-derived
// error: the daemon names every accepted method rather than a stale
// hand-kept list.
func TestDaemonUpdateUnknownMethodListsSchemes(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/update", `{"method": "nope"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown update: got %s, want 400 (%v)", resp.Status, body)
	}
	msg, _ := body["error"].(string)
	for _, name := range chronus.Schemes() {
		if !strings.Contains(msg, name) {
			t.Fatalf("error %q does not list scheme %q", msg, name)
		}
	}
}

// TestDaemonTracePagingWhileDropping walks a full paginated /trace read
// against a deliberately tiny ring while an update floods it with
// events. Every sequence number must be either delivered on some page
// or covered by that page's "skipped" count — duplicated or silently
// lost seqs fail the accounting. This is the regression test for the
// cursor-vs-Dropped() drift: the envelope's numbers are now captured
// under the ring lock together with the page.
func TestDaemonTracePagingWhileDropping(t *testing.T) {
	_, ts := newTestServerOpts(t, serverOptions{Seed: 3, Virtual: true, TraceCap: 48})

	done := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/update", "application/json", strings.NewReader(`{"method": "chronus"}`))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("update: %s", resp.Status)
			}
		}
		done <- err
	}()

	type page struct {
		Events []struct {
			Seq uint64 `json:"seq"`
		} `json:"events"`
		Next    uint64 `json:"next"`
		Skipped uint64 `json:"skipped"`
		Dropped uint64 `json:"dropped"`
	}
	var cursor, seen, skipped, dropped uint64
	updating := true
	for {
		var p page
		getJSON(t, fmt.Sprintf("%s/trace?since=%d&limit=5", ts.URL, cursor), &p)
		dropped = p.Dropped
		if len(p.Events) == 0 {
			if p.Next != cursor {
				t.Fatalf("empty page moved the cursor: %d -> %d", cursor, p.Next)
			}
			if p.Skipped != 0 {
				t.Fatalf("empty page reported skipped=%d", p.Skipped)
			}
			if !updating {
				break
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			updating = false // one more pass to drain the tail
			continue
		}
		if want := cursor + p.Skipped + 1; p.Events[0].Seq != want {
			t.Fatalf("first seq %d != cursor %d + skipped %d + 1", p.Events[0].Seq, cursor, p.Skipped)
		}
		for i := 1; i < len(p.Events); i++ {
			if p.Events[i].Seq != p.Events[i-1].Seq+1 {
				t.Fatalf("page not contiguous: seq %d after %d", p.Events[i].Seq, p.Events[i-1].Seq)
			}
		}
		if p.Next != p.Events[len(p.Events)-1].Seq {
			t.Fatalf("next %d != last seq of page %d", p.Next, p.Events[len(p.Events)-1].Seq)
		}
		seen += uint64(len(p.Events))
		skipped += p.Skipped
		cursor = p.Next
	}
	if seen+skipped != cursor {
		t.Fatalf("seen %d + skipped %d != final cursor %d: seqs duplicated or silently lost", seen, skipped, cursor)
	}
	if skipped == 0 {
		t.Fatal("ring never evicted between pages; shrink TraceCap so the test exercises the drift path")
	}
	if skipped > dropped {
		t.Fatalf("reported skipped %d exceeds total drops %d", skipped, dropped)
	}

	// /spans pages through the same ring with the same accounting: each
	// page's cursor advance is exactly its skipped gap plus the events
	// it consumed (at most limit).
	type spansPage struct {
		Next    uint64 `json:"next"`
		Skipped uint64 `json:"skipped"`
	}
	var sp spansPage
	getJSON(t, ts.URL+"/spans?limit=5", &sp)
	if sp.Skipped == 0 {
		t.Fatal("/spans from cursor 0 reported no skipped events although the ring overflowed")
	}
	if consumed := sp.Next - sp.Skipped; consumed > 5 {
		t.Fatalf("/spans page consumed %d events > limit 5", consumed)
	}
	for prev := sp.Next; ; prev = sp.Next {
		getJSON(t, fmt.Sprintf("%s/spans?since=%d&limit=5", ts.URL, prev), &sp)
		if consumed := sp.Next - prev - sp.Skipped; consumed > 5 {
			t.Fatalf("/spans page consumed %d events > limit 5", consumed)
		}
		if sp.Next == prev {
			break
		}
	}
	if sp.Next != cursor {
		t.Fatalf("/spans exhausted at cursor %d, /trace at %d", sp.Next, cursor)
	}
}
