package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	chronus "github.com/chronus-sdn/chronus"
	"github.com/chronus-sdn/chronus/internal/audit"
	"github.com/chronus-sdn/chronus/internal/journal"
)

// TestDaemonJournalRetainsEvictedEvents runs an update through a daemon
// whose trace ring is far too small to hold it: the ring must evict,
// the journal must not. Every sequence number the ring dropped is still
// on disk, in order, and the journal's own accounting is exposed on
// /metrics.
func TestDaemonJournalRetainsEvictedEvents(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServerOpts(t, serverOptions{
		Seed: 1, Virtual: true, Wall: false,
		TraceCap: 32, JournalDir: dir, JournalSegmentBytes: 2048,
	})
	resp, result := postJSON(t, ts.URL+"/update", `{"method": "chronus"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update: %s (%v)", resp.Status, result)
	}
	dropped := srv.tracer.Dropped()
	if dropped == 0 {
		t.Fatal("TraceCap 32 did not force ring eviction; the test is vacuous")
	}
	if err := srv.journal.Flush(); err != nil {
		t.Fatal(err)
	}
	events, stats, err := journal.ReadAll(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	retained := srv.tracer.Events(0)
	if want := len(retained) + int(dropped); len(events) != want {
		t.Fatalf("journal holds %d events, want %d (%d retained + %d evicted)",
			len(events), want, len(retained), dropped)
	}
	for i, e := range events {
		if e.Seq != uint64(i+1) {
			t.Fatalf("journal event %d has seq %d, want %d (gap or reorder)", i, e.Seq, i+1)
		}
	}
	if stats.Segments < 2 {
		t.Errorf("2 KiB segments held %d events in %d segment(s), want rotation", len(events), stats.Segments)
	}

	r, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(r.Body)
	r.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"chronus_journal_appended_total",
		"chronus_journal_dropped_total 0",
		"chronus_journal_bytes",
		"chronus_journal_segments",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// A /watch subscriber from zero on this same daemon must see every
	// sequence number from 1 — the evicted range backfilled from the
	// journal — with no gap frame.
	last := srv.tracer.PageStats(0, 0).Next
	c := dialWatch(t, ts.URL+"/watch", nil)
	want := uint64(1)
	for _, f := range c.collect(t, last) {
		if f.event == "gap" {
			t.Fatalf("gap frame despite journal backfill: %+v", f)
		}
		if f.id != want {
			t.Fatalf("frame ids not contiguous across the backfill: got %d, want %d", f.id, want)
		}
		want++
	}
}

// TestDaemonJournalReplayMatchesLiveEndpoints is the durability
// contract: a journal captured from a live run, replayed offline, must
// reproduce the /audit report, the /spans forest and a /trace page byte
// for byte (the daemon runs in deterministic virtual mode, so all three
// are pure functions of the event stream). With a 32-event ring every
// endpoint must still serve every event of the daemon's life, the
// evicted ones read back from the journal: nothing is skipped, and
// "dropped" is the ring's own eviction count.
func TestDaemonJournalReplayMatchesLiveEndpoints(t *testing.T) {
	for _, tc := range []struct {
		name     string
		traceCap int
	}{{"default-ring", 0}, {"ring-32", 32}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			srv, ts := newTestServerOpts(t, serverOptions{
				Seed: 1, Virtual: true, Wall: false, TraceCap: tc.traceCap,
				JournalDir: dir, JournalSegmentBytes: 4096,
			})
			resp, result := postJSON(t, ts.URL+"/update", `{"method": "chronus"}`)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("update: %s (%v)", resp.Status, result)
			}
			if tc.traceCap > 0 && srv.tracer.Dropped() == 0 {
				t.Fatalf("TraceCap %d did not force ring eviction; the input is vacuous", tc.traceCap)
			}
			liveAudit := getBody(t, ts.URL+"/audit")
			liveSpans := getBody(t, ts.URL+"/spans")
			liveTrace := getBody(t, ts.URL+"/trace?since=0&limit=1000")

			if err := srv.journal.Flush(); err != nil {
				t.Fatal(err)
			}
			events, stats, err := journal.ReadAll(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(stats.Warnings) > 0 {
				t.Fatalf("clean journal produced warnings: %v", stats.Warnings)
			}
			if len(events) == 0 {
				t.Fatal("journal is empty")
			}

			a := audit.New()
			a.Feed(events...)
			rec := httptest.NewRecorder()
			writeJSON(rec, http.StatusOK, a.Report())
			if got := rec.Body.String(); got != liveAudit {
				t.Errorf("offline audit of the journal != live /audit:\n--- journal ---\n%s\n--- live ---\n%s", got, liveAudit)
			}
			if len(events) > 1000 {
				t.Fatalf("journal holds %d events; the /trace page of 1000 cannot cover it", len(events))
			}

			last, dropped := events[len(events)-1].Seq, srv.tracer.Dropped()
			rec = httptest.NewRecorder()
			writeJSON(rec, http.StatusOK, map[string]any{
				"spans":   chronus.BuildSpanForest(events),
				"next":    last,
				"skipped": 0,
				"dropped": dropped,
			})
			if got := rec.Body.String(); got != liveSpans {
				t.Errorf("span forest from the journal != live /spans:\n--- journal ---\n%s\n--- live ---\n%s", got, liveSpans)
			}
			rec = httptest.NewRecorder()
			writeJSON(rec, http.StatusOK, map[string]any{
				"events":  events,
				"next":    last,
				"skipped": 0,
				"dropped": dropped,
			})
			if got := rec.Body.String(); got != liveTrace {
				t.Errorf("journal events != live /trace page:\n--- journal ---\n%s\n--- live ---\n%s", got, liveTrace)
			}

			// Small pages walk the same events: never more than limit per
			// page, each resuming at the last Seq served.
			var cursor uint64
			for served := 0; served < len(events); {
				var p struct {
					Events []struct {
						Seq uint64 `json:"seq"`
					} `json:"events"`
					Next    uint64 `json:"next"`
					Skipped uint64 `json:"skipped"`
				}
				getJSON(t, fmt.Sprintf("%s/trace?since=%d&limit=50", ts.URL, cursor), &p)
				if len(p.Events) == 0 || len(p.Events) > 50 || served+len(p.Events) > len(events) || p.Skipped != 0 {
					t.Fatalf("page after %d: %d events, skipped %d; want 1..50 events, none skipped", cursor, len(p.Events), p.Skipped)
				}
				for i, e := range p.Events {
					if e.Seq != events[served+i].Seq {
						t.Fatalf("page after %d: event %d has seq %d, want %d", cursor, i, e.Seq, events[served+i].Seq)
					}
				}
				served += len(p.Events)
				if cursor = p.Next; cursor != p.Events[len(p.Events)-1].Seq {
					t.Fatalf("next %d != last seq served %d", cursor, p.Events[len(p.Events)-1].Seq)
				}
			}
		})
	}
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	r, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	body, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s\n%s", url, r.Status, body)
	}
	return string(body)
}

// TestDaemonWatchBackfillOneLife restarts a daemon on the journal of an
// earlier one. The second life's tracer numbers its events from 1 again,
// so a /watch subscriber from zero must be backfilled from this life's
// segments only: frame ids 1…N, contiguous, with no gap frame and no
// event of the first life.
func TestDaemonWatchBackfillOneLife(t *testing.T) {
	opts := serverOptions{Seed: 1, Virtual: true, Wall: false, TraceCap: 64, JournalDir: t.TempDir()}
	first, err := newServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	first.Close()

	srv, ts := newTestServerOpts(t, opts)
	if srv.tracer.Dropped() == 0 {
		t.Fatal("TraceCap 64 did not force ring eviction at boot; the test is vacuous")
	}
	last := srv.tracer.PageStats(0, 0).Next
	c := dialWatch(t, ts.URL+"/watch?since=0", nil)
	want := uint64(1)
	for _, f := range c.collect(t, last) {
		if f.event == "gap" {
			t.Fatalf("gap frame on a journaled daemon: %+v", f)
		}
		if f.id != want {
			t.Fatalf("frame id %d, want %d: the backfill crossed into the first life", f.id, want)
		}
		want++
	}
}
