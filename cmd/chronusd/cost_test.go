package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// TestDaemonUpdateCostReport drives one update and checks its cost
// attribution end to end: the span id returned by POST /update resolves
// on GET /updates/{id}, the resource meters moved, the span tree folded
// into per-stage latencies in pipeline order inside the update's
// virtual-time window, the stage histograms ship on /metrics with the
// span id attached as an exemplar, and the error surface behaves. One
// update feeds every subtest — updates are the expensive operation
// here, especially under -race.
func TestDaemonUpdateCostReport(t *testing.T) {
	_, ts := newTestServerOpts(t, serverOptions{Seed: 1, Virtual: true, Wall: false})
	resp, result := postJSON(t, ts.URL+"/update", `{"method": "chronus"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update: %s (%v)", resp.Status, result)
	}
	span, ok := result["span"].(float64)
	if !ok || span == 0 {
		t.Fatalf("update response carries no span id: %v", result)
	}

	var cost struct {
		Span        uint64 `json:"span"`
		Method      string `json:"method"`
		Outcome     string `json:"outcome"`
		QueueWaitNs int64  `json:"queue_wait_ns"`
		WallNs      int64  `json:"wall_ns"`
		CPUNs       int64  `json:"cpu_ns"`
		AllocBytes  uint64 `json:"alloc_bytes"`
		Mallocs     uint64 `json:"mallocs"`
		VTStart     int64  `json:"vt_start"`
		VTEnd       int64  `json:"vt_end"`
		Stages      []struct {
			Stage     string  `json:"stage"`
			StartTick int64   `json:"start_tick"`
			EndTick   int64   `json:"end_tick"`
			Ticks     int64   `json:"ticks"`
			Seconds   float64 `json:"seconds"`
			Spans     int     `json:"spans"`
		} `json:"stages"`
	}

	t.Run("report", func(t *testing.T) {
		r, err := http.Get(fmt.Sprintf("%s/updates/%d", ts.URL, uint64(span)))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("status = %s", r.Status)
		}
		if got := r.Header.Get("Content-Type"); got != "application/json" {
			t.Errorf("Content-Type = %q", got)
		}
		if got := r.Header.Get("Cache-Control"); got != "no-store" {
			t.Errorf("Cache-Control = %q", got)
		}
		if err := json.NewDecoder(r.Body).Decode(&cost); err != nil {
			t.Fatal(err)
		}

		if cost.Span != uint64(span) || cost.Method != "chronus" || cost.Outcome != "ok" {
			t.Fatalf("cost identity = %d/%s/%s, want %d/chronus/ok", cost.Span, cost.Method, cost.Outcome, uint64(span))
		}
		if cost.WallNs <= 0 || cost.QueueWaitNs < 0 {
			t.Errorf("wall_ns = %d, queue_wait_ns = %d", cost.WallNs, cost.QueueWaitNs)
		}
		if cost.Mallocs == 0 || cost.AllocBytes == 0 {
			t.Errorf("an update that allocated nothing is implausible: %+v", cost)
		}
		if cost.CPUNs < 0 {
			t.Errorf("cpu_ns = %d", cost.CPUNs)
		}
		if cost.VTEnd < cost.VTStart {
			t.Errorf("virtual window [%d, %d] inverted", cost.VTStart, cost.VTEnd)
		}
	})

	t.Run("stages", func(t *testing.T) {
		if len(cost.Stages) == 0 {
			t.Fatal("no stage breakdown")
		}
		order := map[string]int{"solve": 0, "plan": 1, "send": 2, "barrier": 3, "apply": 4}
		seen := map[string]bool{}
		prev := -1
		for _, st := range cost.Stages {
			rank, ok := order[st.Stage]
			if !ok {
				t.Fatalf("unknown stage %q", st.Stage)
			}
			if rank <= prev {
				t.Fatalf("stages out of pipeline order: %+v", cost.Stages)
			}
			prev = rank
			seen[st.Stage] = true
			if st.Spans == 0 || st.EndTick < st.StartTick {
				t.Errorf("stage %s: %+v", st.Stage, st)
			}
			if st.Ticks != st.EndTick-st.StartTick {
				t.Errorf("stage %s ticks = %d, want %d", st.Stage, st.Ticks, st.EndTick-st.StartTick)
			}
			if want := float64(st.Ticks) * tickSeconds; st.Seconds != want {
				t.Errorf("stage %s seconds = %g, want %g", st.Stage, st.Seconds, want)
			}
			if st.StartTick < cost.VTStart || st.EndTick > cost.VTEnd {
				t.Errorf("stage %s [%d, %d] outside the update window [%d, %d]",
					st.Stage, st.StartTick, st.EndTick, cost.VTStart, cost.VTEnd)
			}
		}
		for _, stage := range []string{"solve", "send", "apply"} {
			if !seen[stage] {
				t.Errorf("stage breakdown missing %q: %+v", stage, cost.Stages)
			}
		}
	})

	t.Run("exposition", func(t *testing.T) {
		text := getBody(t, ts.URL+"/metrics")
		for _, stage := range []string{"solve", "plan", "send", "barrier", "apply"} {
			if !strings.Contains(text, fmt.Sprintf(`chronus_update_stage_seconds_bucket{stage=%q,`, stage)) {
				t.Errorf("no %s stage histogram in the exposition", stage)
			}
		}
		if !strings.Contains(text, fmt.Sprintf(`# EXEMPLAR chronus_update_stage_seconds{stage="solve"} span_id=%d `, uint64(span))) {
			t.Errorf("no solve-stage exemplar carrying span id %d", uint64(span))
		}
	})

	t.Run("bad-id", func(t *testing.T) {
		r, err := http.Get(ts.URL + "/updates/notanumber")
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad id: %s", r.Status)
		}
	})

	t.Run("unknown-id", func(t *testing.T) {
		r, err := http.Get(ts.URL + "/updates/999999999")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown id: %s", r.Status)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(r.Body).Decode(&e); err != nil {
			t.Fatal(err)
		}
		// The 404 lists the ids that DO have reports, so a probe after a
		// daemon restart is self-explaining.
		if !strings.Contains(e.Error, fmt.Sprintf("known: %d", uint64(span))) {
			t.Fatalf("404 body should list the known span ids: %q", e.Error)
		}
	})
}
