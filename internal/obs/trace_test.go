package obs

import (
	"reflect"
	"testing"
)

// deepCopy copies a page down to its events' attributes.
func deepCopy(evs []Event) []Event {
	out := make([]Event, len(evs))
	for i, e := range evs {
		e.Attrs = append([]Attr(nil), e.Attrs...)
		out[i] = e
	}
	return out
}

// fill records n events on tr, the k-th written carrying attribute i=k.
func fill(tr *Tracer, n int) {
	for i := 0; i < n; i++ {
		tr.Point(int64(i), "e", A("i", i))
	}
}

// TestTracerPageSurvivesEviction: pages taken before the tracer evicts
// their events — a window inside one segment, a copy across segments,
// and the whole tracer — are unchanged after ten times cap more events,
// at a small cap and at the default.
func TestTracerPageSurvivesEviction(t *testing.T) {
	for _, optCap := range []int{32, 0} {
		tr := NewTracer(TracerOptions{Cap: optCap})
		ringCap := tr.cap
		fill(tr, ringCap+ringCap/2)
		since := tr.seq - uint64(ringCap)
		pages := []PageStats{tr.PageStats(since, 3), tr.PageStats(since+uint64(tr.seg)-2, 4), tr.PageStats(since, 0)}
		want := make([][]Event, len(pages))
		for i, ps := range pages {
			want[i] = deepCopy(ps.Events)
		}
		fill(tr, 10*ringCap)
		if tr.Dropped() < uint64(10*ringCap) {
			t.Fatalf("cap %d: %d dropped; the pages' events were not all evicted", ringCap, tr.Dropped())
		}
		for i, ps := range pages {
			if !reflect.DeepEqual(ps.Events, want[i]) {
				t.Fatalf("cap %d: page %d changed under eviction", ringCap, i)
			}
		}
	}
}

// TestTracerPageAppendIsolated: a page's capacity ends at its length, so
// appending to it, from any cursor and whatever the segment layout,
// never reaches the slot the tracer writes its next event into.
func TestTracerPageAppendIsolated(t *testing.T) {
	for _, optCap := range []int{32, 300, 0} {
		tr := NewTracer(TracerOptions{Cap: optCap})
		for written := 1; written <= 3*min(tr.cap, 9000); written += 7 {
			fill(tr, 7)
			for _, since := range []uint64{0, tr.seq - 9, tr.seq - 1, tr.seq} {
				ps := tr.PageStats(since, 12)
				if cap(ps.Events) != len(ps.Events) || ps.Events == nil {
					t.Fatalf("cap %d, seq %d, since %d: page of len %d has cap %d", tr.cap, tr.seq, since, len(ps.Events), cap(ps.Events))
				}
				_ = append(ps.Events, Event{Seq: 1 << 60, Name: "rogue"})
				tr.Point(0, "next")
				if e := tr.Events(tr.seq - 1); len(e) != 1 || e[0].Name != "next" || e[0].Seq != tr.seq {
					t.Fatalf("cap %d: the next event became %+v", tr.cap, e)
				}
			}
		}
	}
}

// TestTracerStorageBound: at caps below, at and above S, multiples of S
// or not, storage — the slots of every segment's array — never exceeds
// cap + S while the tracer fills and wraps three times, every segment's
// window lies inside its array, and the windows hold the retained
// events.
func TestTracerStorageBound(t *testing.T) {
	for _, optCap := range []int{1, 2, 3, 32, 255, 4096, 4097, 4098, 6000, 8192, 10001} {
		tr := NewTracer(TracerOptions{Cap: optCap})
		for i := 0; i < 3*optCap+maxSegment; i++ {
			tr.Point(int64(i), "e")
			slots, held := 0, 0
			for _, s := range tr.segs {
				if cap(s.ev) > s.size || len(s.ev) == 0 {
					t.Fatalf("cap %d, %d written: window of len %d cap %d in an array of %d", optCap, i+1, len(s.ev), cap(s.ev), s.size)
				}
				slots += s.size
				held += len(s.ev)
			}
			if slots != tr.slots || held != tr.count || held != min(i+1, optCap) {
				t.Fatalf("cap %d, %d written: %d slots (counted %d), %d held (counted %d)", optCap, i+1, slots, tr.slots, held, tr.count)
			}
			if slots > optCap+tr.seg {
				t.Fatalf("cap %d, %d written: storage %d slots, bound %d", optCap, i+1, slots, optCap+tr.seg)
			}
		}
	}
}

// TestTracerPageAllocFree: reading a page that lies inside one segment
// allocates nothing — neither the page nor its events are copied.
func TestTracerPageAllocFree(t *testing.T) {
	tr := NewTracer(TracerOptions{})
	fill(tr, 500)
	if got := testing.AllocsPerRun(100, func() {
		if ps := tr.PageStats(100, 0); len(ps.Events) != 400 {
			t.Fatalf("page of %d events, want 400", len(ps.Events))
		}
	}); got != 0 {
		t.Fatalf("PageStats inside one segment: %v allocations per read, want 0", got)
	}
}
