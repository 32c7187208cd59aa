package main

import (
	"io"
	"os"
	"reflect"
	"testing"

	"github.com/chronus-sdn/chronus/internal/audit"
	"github.com/chronus-sdn/chronus/internal/clock"
	"github.com/chronus-sdn/chronus/internal/health"
	"github.com/chronus-sdn/chronus/internal/obs"
	"github.com/chronus-sdn/chronus/internal/state"
)

// emulationPage records the checked-in emulation journal (one timed
// chronus update on the emulation topology) into a tracer and returns
// the tracer and its whole page: a window onto the tracer's storage,
// shared with every other reader, as each fold is handed one.
func emulationPage(t *testing.T) (*obs.Tracer, []obs.Event) {
	t.Helper()
	f, err := os.Open("../../internal/obs/testdata/emulation.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr := obs.NewTracer(obs.TracerOptions{})
	if _, err := obs.ReadJSONL(f, false, func(e obs.Event) error {
		if e.Dur != 0 {
			tr.Span(e.Name, e.VT, e.VT+e.Dur, e.Attrs...)
		} else {
			tr.Point(e.VT, e.Name, e.Attrs...)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	page := tr.Events(0)
	if len(page) < 100 {
		t.Fatalf("emulation page holds %d events", len(page))
	}
	return tr, page
}

// clonePage copies a page down to its events' attributes.
func clonePage(evs []obs.Event) []obs.Event {
	out := make([]obs.Event, len(evs))
	for i, e := range evs {
		e.Attrs = append([]obs.Attr(nil), e.Attrs...)
		out[i] = e
	}
	return out
}

// TestPageReadersLeavePageIntact holds every reader of a tracer page to
// the page's read-only contract (obs.PageStats.Events): after each call,
// the page — its events and their attributes — equals a copy taken
// before it. The folds read their input in place and the auditor keeps
// it, so one that sorted or rewrote a page would corrupt the trace for
// every other reader.
func TestPageReadersLeavePageIntact(t *testing.T) {
	for _, c := range []struct {
		name string
		read func(tr *obs.Tracer, page []obs.Event)
	}{
		{"clock.Observe", func(_ *obs.Tracer, page []obs.Event) {
			c := clock.New(nil)
			c.Observe(page)
			c.Estimates()
		}},
		{"health.Observe", func(_ *obs.Tracer, page []obs.Event) {
			h := health.New(nil)
			h.SetPlan(health.Plan{Kind: "timed", Valid: true})
			h.Observe(page)
			h.Verdict()
		}},
		{"state.Observe", func(_ *obs.Tracer, page []obs.Event) {
			s := state.New(state.Options{})
			s.Observe(page)
			s.DriftBody()
			s.StateBody(-1)
		}},
		{"state.Prefeed", func(_ *obs.Tracer, page []obs.Event) {
			s := state.New(state.Options{})
			s.Prefeed(page)
			s.DriftBody()
		}},
		{"audit.Feed+Report", func(_ *obs.Tracer, page []obs.Event) {
			a := audit.New()
			a.Feed(page[len(page)/2:]...)
			a.Report()
			a.Feed(page[:len(page)/2]...) // out of order: the next report rebuilds
			a.Report()
		}},
		{"BuildSpanForest", func(_ *obs.Tracer, page []obs.Event) {
			if len(obs.BuildSpanForest(page)) == 0 {
				t.Fatal("no spans in the emulation page")
			}
		}},
		{"WriteJSONL", func(tr *obs.Tracer, _ []obs.Event) {
			if err := tr.WriteJSONL(io.Discard, 0); err != nil {
				t.Fatal(err)
			}
		}},
		{"renderTimeline", func(_ *obs.Tracer, page []obs.Event) {
			renderTimeline(io.Discard, page)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr, page := emulationPage(t)
			want := clonePage(page)
			c.read(tr, page)
			if !reflect.DeepEqual(page, want) {
				t.Fatalf("%s modified the page it read", c.name)
			}
			if now := tr.Events(0); !reflect.DeepEqual(now, want) {
				t.Fatalf("%s modified the tracer's events", c.name)
			}
		})
	}
}
