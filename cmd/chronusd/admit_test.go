package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/chronus-sdn/chronus/internal/admit"
	"github.com/chronus-sdn/chronus/internal/health"
)

// planOnlyBody is a tenant plan-only update on the emulation topology:
// a 100 Mbps flow moving from the R2->R10 shortcut onto the forward
// line. Well under the 500 Mbps links, so it always admits.
func planOnlyBody(flow string) string {
	return fmt.Sprintf(`{"flow": %q, "tenant": "acme", "demand": 100,
		"init": ["R1", "R2", "R10"],
		"fin":  ["R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9", "R10"]}`, flow)
}

// TestDaemonAsyncUpdateImmediatePoll is the regression for the 404
// window: the id in the 202 body must resolve on GET /updates/{id} the
// moment the response arrives, and the update must reach "done" without
// any synchronous waiter.
func TestDaemonAsyncUpdateImmediatePoll(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/update", `{"method": "chronus", "async": true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async update: %s (%v)", resp.Status, body)
	}
	if body["state"] != "queued" {
		t.Fatalf("async body = %v, want state queued", body)
	}
	loc := resp.Header.Get("Location")
	id := int(body["id"].(float64))
	if loc != fmt.Sprintf("/updates/%d", id) {
		t.Fatalf("Location = %q, want /updates/%d", loc, id)
	}

	// Immediately after the 202 the id must already be registered.
	var view map[string]any
	getJSON(t, ts.URL+loc, &view)
	if view["state"] == nil {
		t.Fatalf("immediate poll returned no state: %v", view)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		getJSON(t, ts.URL+loc, &view)
		if s := view["state"].(string); s == "done" {
			break
		} else if s == "failed" || s == "refused" {
			t.Fatalf("async update ended %s: %v", s, view["reason"])
		}
		if time.Now().After(deadline) {
			t.Fatalf("async update stuck in %v", view["state"])
		}
		time.Sleep(10 * time.Millisecond)
	}
	if view["span"] == nil || view["span"].(float64) == 0 {
		t.Fatalf("executed update has no span: %v", view)
	}
}

func TestDaemonPlanOnlyTenantUpdate(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/update", planOnlyBody("web"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan-only update: %s (%v)", resp.Status, body)
	}
	if body["state"] != "done" || body["tenant"] != "acme" {
		t.Fatalf("plan-only response = %v, want done for tenant acme", body)
	}
	sched, ok := body["schedule"].(map[string]any)
	if !ok || len(sched) == 0 {
		t.Fatalf("plan-only update carries no schedule: %v", body)
	}
	// A plan-only update must not consume the daemon's one-shot
	// aggregate migration slot.
	resp, body = postJSON(t, ts.URL+"/update", `{"method": "chronus"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("aggregate update after plan-only: %s (%v)", resp.Status, body)
	}
}

// TestDaemonConcurrentExecuteClaimsOnce: eight async execute updates
// race for the daemon's one migration of the aggregate flow. Exactly one
// is admitted, the other seven get the 409, and one record is filed.
func TestDaemonConcurrentExecuteClaimsOnce(t *testing.T) {
	srv, ts := newTestServerOpts(t, serverOptions{Seed: 1, Virtual: true})
	codes := make([]int, 8)
	ids := make([]uint64, 8)
	var wg sync.WaitGroup
	for i := range codes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/update", "application/json",
				strings.NewReader(`{"method": "chronus", "async": true}`))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var body struct {
				ID uint64 `json:"id"`
			}
			_ = json.NewDecoder(resp.Body).Decode(&body)
			codes[i], ids[i] = resp.StatusCode, body.ID
		}()
	}
	wg.Wait()
	var admitted uint64
	conflicts := 0
	for i, code := range codes {
		switch code {
		case http.StatusAccepted:
			if admitted != 0 {
				t.Fatalf("two execute updates admitted: %d and %d", admitted, ids[i])
			}
			admitted = ids[i]
		case http.StatusConflict:
			conflicts++
		default:
			t.Fatalf("execute update %d: status %d", i, code)
		}
	}
	if admitted == 0 || conflicts != 7 {
		t.Fatalf("statuses %v: want one 202 and seven 409s", codes)
	}
	// Let the admitted update finish before the daemon is torn down.
	view, err := srv.admit.Wait(context.Background(), admitted)
	if err != nil || view.State != "done" {
		t.Fatalf("admitted update %d: %+v (%v), want done", admitted, view, err)
	}
	srv.mu.Lock()
	records := len(srv.costs)
	srv.mu.Unlock()
	if records != 1 {
		t.Fatalf("%d update records, want 1", records)
	}
}

func TestDaemonQueueEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	if resp, body := postJSON(t, ts.URL+"/update", planOnlyBody("web")); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed update: %s (%v)", resp.Status, body)
	}
	var snap struct {
		Depth   int    `json:"depth"`
		Cap     int    `json:"cap"`
		Waves   uint64 `json:"waves"`
		Tenants []struct {
			Tenant  string `json:"tenant"`
			Planned int64  `json:"planned"`
		} `json:"tenants"`
		Ledger *admit.Utilization `json:"ledger"`
	}
	getJSON(t, ts.URL+"/queue", &snap)
	if snap.Cap <= 0 || snap.Depth != 0 || snap.Waves == 0 {
		t.Fatalf("queue snapshot = %+v", snap)
	}
	if snap.Ledger == nil || snap.Ledger.Holds != 0 {
		t.Fatalf("ledger utilization = %+v, want present with zero holds", snap.Ledger)
	}
	found := false
	for _, tn := range snap.Tenants {
		if tn.Tenant == "acme" && tn.Planned == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("tenant accounting missing acme: %+v", snap.Tenants)
	}
}

// TestDaemonBackpressure429: a full admission queue refuses an
// equal-priority submission with 429 Too Many Requests, and /health's
// backpressure rules see it: the queue at capacity, refusals in a row,
// and a queue head left waiting past the age threshold.
func TestDaemonBackpressure429(t *testing.T) {
	srv, ts := newTestServerOpts(t, serverOptions{Seed: 1, Wall: true, QueueCap: 1})
	// Occupy the only queue slot directly on the engine — no waiter, so
	// nothing drains it while the HTTP submission is judged.
	if _, err := srv.admit.Submit(admit.Request{
		Tenant: "bg", Flow: "filler", Demand: 100,
		Init: srv.in.Init, Fin: srv.in.Fin,
	}); err != nil {
		t.Fatal(err)
	}
	for range health.SaturationStreakWarn {
		resp, body := postJSON(t, ts.URL+"/update", planOnlyBody("late"))
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("submission against full queue: %s (%v)", resp.Status, body)
		}
	}
	if resp, body := postJSON(t, ts.URL+"/advance", fmt.Sprintf(`{"ticks": %d}`, health.QueueWaitWarnTicks+1)); resp.StatusCode != http.StatusOK {
		t.Fatalf("advance: %s (%v)", resp.Status, body)
	}
	var v struct {
		Level   string   `json:"level"`
		Reasons []string `json:"reasons"`
	}
	getJSON(t, ts.URL+"/health", &v)
	reasons := strings.Join(v.Reasons, "; ")
	for _, want := range []string{"admission queue at 100% of capacity", "sustained admission saturation", "oldest queued update waiting"} {
		if v.Level != "WARN" || !strings.Contains(reasons, want) {
			t.Errorf("health with a full, refusing, stale queue: level %s, reasons %q lack %q", v.Level, reasons, want)
		}
	}
	// The refusal is backpressure, not state: draining frees the slot
	// and the same request then succeeds.
	srv.admit.Drain()
	if resp, body := postJSON(t, ts.URL+"/update", planOnlyBody("late")); resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmission after drain: %s (%v)", resp.Status, body)
	}
}

func TestDaemonHealthIncludesQueue(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v struct {
		Level string          `json:"level"`
		Queue json.RawMessage `json:"queue"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if len(v.Queue) == 0 {
		t.Fatal("health verdict carries no queue stats")
	}
	var qs struct {
		Cap int `json:"cap"`
	}
	if err := json.Unmarshal(v.Queue, &qs); err != nil || qs.Cap <= 0 {
		t.Fatalf("queue stats = %s (err %v)", v.Queue, err)
	}
}
