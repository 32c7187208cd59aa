package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"
)

func TestSpanEventEncoding(t *testing.T) {
	tr := NewTracer(TracerOptions{})
	root := tr.StartSpan(10, "update", 0, A("method", "chronus"))
	child := tr.StartSpan(12, "solve", root.SpanID(), A("scheme", "chronus"))
	child.End(15, A("outcome", "ok"))
	root.End(20)

	evs := tr.Events(0)
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	// Spans are recorded at End time: child first.
	c, r := evs[0], evs[1]
	if c.Name != SpanEventName || r.Name != SpanEventName {
		t.Fatalf("event names = %q, %q, want %q", c.Name, r.Name, SpanEventName)
	}
	if c.VT != 12 || c.Dur != 3 {
		t.Errorf("child VT/Dur = %d/%d, want 12/3", c.VT, c.Dur)
	}
	wantChild := []Attr{{"span", "2"}, {"parent", "1"}, {"op", "solve"}, {"scheme", "chronus"}, {"outcome", "ok"}}
	if len(c.Attrs) != len(wantChild) {
		t.Fatalf("child attrs = %v", c.Attrs)
	}
	for i, a := range wantChild {
		if c.Attrs[i] != a {
			t.Errorf("child attr[%d] = %v, want %v", i, c.Attrs[i], a)
		}
	}
	// Root has no parent attribute at all.
	for _, a := range r.Attrs {
		if a.K == "parent" {
			t.Errorf("root span carries a parent attr: %v", r.Attrs)
		}
	}
}

func TestEmitSpanAndNilSafety(t *testing.T) {
	var nilT *Tracer
	if sp := nilT.StartSpan(0, "x", 0); sp != nil {
		t.Fatal("nil tracer should return nil span")
	}
	var nilSpan *SpanCtx
	nilSpan.End(5) // must not panic
	if id := nilSpan.SpanID(); id != 0 {
		t.Fatalf("nil span id = %d", id)
	}
	if id := nilT.EmitSpan("x", 0, 1, 2); id != 0 {
		t.Fatalf("nil tracer EmitSpan id = %d", id)
	}

	tr := NewTracer(TracerOptions{})
	id := tr.EmitSpan("ctl.send", 0, 7, 7, A("xid", 3))
	if id != 1 {
		t.Fatalf("first span id = %d, want 1", id)
	}
	ev := tr.Events(0)[0]
	if ev.VT != 7 || ev.Dur != 0 {
		t.Errorf("emit span VT/Dur = %d/%d, want 7/0", ev.VT, ev.Dur)
	}
}

func TestBuildSpanForest(t *testing.T) {
	tr := NewTracer(TracerOptions{})
	root := tr.StartSpan(0, "update", 0, A("method", "chronus"))
	exec := tr.StartSpan(5, "ctl.execute", root.SpanID(), A("mode", "timed"))
	// Controller-side send with xid 42; switch-side recv correlates via
	// the xid attribute rather than a span id.
	tr.EmitSpan("ctl.send", exec.SpanID(), 5, 5, A("switch", "R2"), A("xid", 42))
	recv := tr.StartSpan(8, "sw.recv", 0, A("switch", "R2"), A("xid", 42))
	tr.EmitSpan("sw.apply", recv.SpanID(), 20, 20, A("switch", "R2"), A("skew", 0))
	recv.End(20)
	exec.End(21)
	root.End(25)
	// A span whose parent is not in the window surfaces as a root.
	tr.EmitSpan("orphan", SpanID(999), 30, 31)

	forest := BuildSpanForest(tr.Events(0))
	if len(forest) != 2 {
		t.Fatalf("got %d roots, want 2 (update + orphan)", len(forest))
	}
	up := forest[0]
	if up.Op != "update" || forest[1].Op != "orphan" {
		t.Fatalf("root ops = %s, %s", forest[0].Op, forest[1].Op)
	}
	if len(up.Children) != 1 || up.Children[0].Op != "ctl.execute" {
		t.Fatalf("update children = %+v", up.Children)
	}
	ex := up.Children[0]
	// The xid link rule binds sw.* to the ctl.* span carrying the same
	// xid — ctl.send here — so execute has exactly one child.
	if len(ex.Children) != 1 || ex.Children[0].Op != "ctl.send" {
		t.Fatalf("execute children = %+v, want one ctl.send", ex.Children)
	}
	send := ex.Children[0]
	if len(send.Children) != 1 || send.Children[0].Op != "sw.recv" {
		t.Fatalf("ctl.send children = %+v, want the xid-correlated sw.recv", send.Children)
	}
	rv := send.Children[0]
	if rv.Start != 8 || rv.End != 20 {
		t.Errorf("recv span [%d,%d], want [8,20]", rv.Start, rv.End)
	}
	if len(rv.Children) != 1 || rv.Children[0].Op != "sw.apply" {
		t.Fatalf("recv children = %+v", rv.Children)
	}
	if got := rv.Attr("switch"); got != "R2" {
		t.Errorf("recv switch attr = %q", got)
	}

	// The forest JSON encoding must be deterministic.
	j1, _ := json.Marshal(forest)
	j2, _ := json.Marshal(BuildSpanForest(tr.Events(0)))
	if !bytes.Equal(j1, j2) {
		t.Error("forest JSON not stable across builds")
	}
	var count int
	up.Walk(func(*SpanNode) { count++ })
	if count != 5 {
		t.Errorf("walk visited %d spans, want 5", count)
	}
}

func TestBuildSpanForestIgnoresOtherEvents(t *testing.T) {
	tr := NewTracer(TracerOptions{})
	tr.Point(1, "sw.flowmod", A("switch", "R1"))
	tr.EmitSpan("update", 0, 0, 9)
	tr.Point(2, "sched", A("switch", "R1"))
	forest := BuildSpanForest(tr.Events(0))
	if len(forest) != 1 || forest[0].Op != "update" {
		t.Fatalf("forest = %+v", forest)
	}
}

// TestBuildSpanForestSharesAttrs: a tracer-written span's node reads its
// user attributes through a window of the event's own (the structural
// ones lead them), while a hand-built event whose structural attributes
// do not all lead gets the same node from a copy, its event untouched.
func TestBuildSpanForestSharesAttrs(t *testing.T) {
	tr := NewTracer(TracerOptions{})
	root := tr.EmitSpan("update", 0, 0, 9, A("method", "chronus"))
	tr.EmitSpan("solve", root, 1, 2, A("scheme", "chronus"), A("n", 6))
	evs := tr.Events(0)
	forest := BuildSpanForest(evs)
	solve := forest[0].Children[0]
	if &solve.Attrs[0] != &evs[1].Attrs[3] || cap(solve.Attrs) != len(solve.Attrs) {
		t.Fatalf("solve's attrs %v are not a capped window of its event's %v", solve.Attrs, evs[1].Attrs)
	}

	mixed := []Event{{Seq: 1, Name: SpanEventName, Attrs: []Attr{
		{K: spanAttrID, V: "4"}, {K: "scheme", V: "or"}, {K: spanAttrOp, V: "solve"}, {K: "n", V: "6"}}}}
	before := deepCopy(mixed)
	got := BuildSpanForest(mixed)
	want := &SpanNode{ID: 4, Op: "solve", Seq: 1, Attrs: []Attr{{K: "scheme", V: "or"}, {K: "n", V: "6"}}}
	if len(got) != 1 || !reflect.DeepEqual(got[0], want) {
		t.Fatalf("forest of an interleaved span = %+v, want %+v", got[0], want)
	}
	if !reflect.DeepEqual(mixed, before) {
		t.Fatal("BuildSpanForest modified its input")
	}
}

// TestTracerPageWhileDropping drives a tiny ring from a writer
// goroutine while a reader pages concurrently — the scenario behind
// chronusd's /trace and /spans endpoints serving during a busy update.
// Run under -race this checks the locking; the assertions check the
// paging invariants (monotonic seqs, no phantom events, gaps only ever
// explained by drops).
func TestTracerPageWhileDropping(t *testing.T) {
	drops := &Counter{}
	tr := NewTracer(TracerOptions{Cap: 8, Drops: drops})
	const total = 4000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			tr.Point(int64(i), "tick", A("i", i))
		}
	}()
	var cursor uint64
	var seen int
	for {
		evs, next := page(tr, cursor, 3)
		if len(evs) > 3 {
			t.Errorf("page returned %d > limit 3", len(evs))
		}
		last := cursor
		for _, e := range evs {
			if e.Seq <= last {
				t.Fatalf("non-monotonic seq %d after %d", e.Seq, last)
			}
			last = e.Seq
			if e.Name != "tick" {
				t.Fatalf("phantom event %q", e.Name)
			}
			seen++
		}
		if next < cursor {
			t.Fatalf("cursor went backwards: %d -> %d", cursor, next)
		}
		cursor = next
		if cursor >= total {
			break
		}
	}
	wg.Wait()
	dropped := tr.Dropped()
	if uint64(seen)+dropped < total {
		t.Errorf("seen %d + dropped %d < total %d: events vanished without drop accounting", seen, dropped, total)
	}
	if uint64(drops.Value()) != dropped {
		t.Errorf("drops counter %d != tracer dropped %d", drops.Value(), dropped)
	}
}

// TestTracerPageStatsWhileDropping is the exact-accounting version of
// the paging test: a writer floods a tiny ring while a reader pages
// with PageStats, and every sequence number must be accounted for as
// either seen or reported in a page's Skipped gap — no duplicates, no
// silent losses beyond the per-page drop accounting.
func TestTracerPageStatsWhileDropping(t *testing.T) {
	tr := NewTracer(TracerOptions{Cap: 8, Drops: &Counter{}})
	const total = 4000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			tr.Point(int64(i), "tick", A("i", i))
		}
	}()
	var cursor, seen, skipped uint64
	for cursor < total {
		ps := tr.PageStats(cursor, 3)
		if len(ps.Events) == 0 {
			if ps.Next != cursor {
				t.Fatalf("empty page moved the cursor: %d -> %d", cursor, ps.Next)
			}
			if ps.Skipped != 0 {
				t.Fatalf("empty page reported skipped=%d", ps.Skipped)
			}
			continue // writer still running; retry
		}
		// The gap contract: the first event of the page sits exactly
		// Skipped+1 past the cursor, and the page itself is contiguous
		// (the ring retains a dense sequence range).
		if want := cursor + ps.Skipped + 1; ps.Events[0].Seq != want {
			t.Fatalf("first seq %d != cursor %d + skipped %d + 1", ps.Events[0].Seq, cursor, ps.Skipped)
		}
		for i := 1; i < len(ps.Events); i++ {
			if ps.Events[i].Seq != ps.Events[i-1].Seq+1 {
				t.Fatalf("page not contiguous: %d after %d", ps.Events[i].Seq, ps.Events[i-1].Seq)
			}
		}
		if ps.Next != ps.Events[len(ps.Events)-1].Seq {
			t.Fatalf("next %d != last seq %d", ps.Next, ps.Events[len(ps.Events)-1].Seq)
		}
		seen += uint64(len(ps.Events))
		skipped += ps.Skipped
		cursor = ps.Next
	}
	wg.Wait()
	// Every sequence number in [1, cursor] was either delivered or
	// reported skipped — exactly once each.
	if seen+skipped != cursor {
		t.Fatalf("seen %d + skipped %d != final cursor %d: sequence numbers duplicated or silently lost", seen, skipped, cursor)
	}
	if d := tr.Dropped(); skipped > d {
		t.Fatalf("reported skipped %d exceeds total drops %d", skipped, d)
	}
}
