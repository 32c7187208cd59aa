package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

// TestDaemonUpdateCostReport drives one update and checks its cost
// attribution end to end: the admission id returned by POST /update
// resolves on GET /updates/{id} with the report under "cost", filed
// under the root span id the response also names; the resource meters
// moved, the span tree folded into per-stage latencies in pipeline
// order inside the update's virtual-time window, the stage histograms
// ship on /metrics with the span id attached as an exemplar, and the
// error surface behaves. One update feeds every subtest — updates are
// the expensive operation here, especially under -race — except
// evicted-ring, which runs the same update on a 32-event ring with a
// journal and must get the same breakdown.
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
	id, ok := result["id"].(float64)
	if !ok || id == 0 {
		t.Fatalf("update response carries no admission id: %v", result)
	}

	type costBody struct {
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
	type viewBody struct {
		ID   uint64    `json:"id"`
		Flow string    `json:"flow"`
		Cost *costBody `json:"cost"`
	}
	var cost costBody

	t.Run("report", func(t *testing.T) {
		r, err := http.Get(fmt.Sprintf("%s/updates/%d", ts.URL, uint64(id)))
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
		var view viewBody
		if err := json.NewDecoder(r.Body).Decode(&view); err != nil {
			t.Fatal(err)
		}
		if view.Cost == nil {
			t.Fatalf("update %d has no cost report", uint64(id))
		}
		cost = *view.Cost

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

	t.Run("evicted-ring", func(t *testing.T) {
		srv, ts := newTestServerOpts(t, serverOptions{
			Seed: 1, Virtual: true, Wall: false, TraceCap: 32, JournalDir: t.TempDir(),
		})
		resp, result := postJSON(t, ts.URL+"/update", `{"method": "chronus"}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("update: %s (%v)", resp.Status, result)
		}
		if srv.tracer.Dropped() == 0 {
			t.Fatal("TraceCap 32 did not force ring eviction; the input is vacuous")
		}
		var view viewBody
		getJSON(t, fmt.Sprintf("%s/updates/%v", ts.URL, result["id"]), &view)
		if view.Cost == nil {
			t.Fatalf("update %v has no cost report", result["id"])
		}
		got := *view.Cost
		if got.VTStart != cost.VTStart || got.VTEnd != cost.VTEnd || !reflect.DeepEqual(got.Stages, cost.Stages) {
			t.Errorf("evicted ring: window [%d, %d] stages %+v\nwant [%d, %d] stages %+v",
				got.VTStart, got.VTEnd, got.Stages, cost.VTStart, cost.VTEnd, cost.Stages)
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

	// A root span id is not an update id: /updates/{span} is a 404 while
	// fewer updates than that were admitted, and the view of whichever
	// update is admitted under that number afterwards.
	t.Run("unknown-id", func(t *testing.T) {
		url := fmt.Sprintf("%s/updates/%d", ts.URL, uint64(span))
		r, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Fatalf("span id %d before %d admissions: %s, want 404", uint64(span), uint64(span), r.Status)
		}
		for n := uint64(id) + 1; n <= uint64(span); n++ {
			if resp, body := postJSON(t, ts.URL+"/update", planOnlyBody(fmt.Sprintf("u%d", n))); resp.StatusCode != http.StatusOK {
				t.Fatalf("plan-only update %d: %s (%v)", n, resp.Status, body)
			}
		}
		var view viewBody
		getJSON(t, url, &view)
		if view.ID != uint64(span) || view.Flow != fmt.Sprintf("u%d", uint64(span)) || view.Cost != nil {
			t.Fatalf("/updates/%d = %+v, want plan-only update %d without a cost report", uint64(span), view, uint64(span))
		}
	})
}
