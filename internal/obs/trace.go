package obs

import (
	"fmt"
	"io"
	"strconv"
	"sync"
)

// Attr is one key/value annotation on a trace event. Values are
// pre-formatted strings so that event serialization is deterministic
// (no map iteration, no float formatting surprises).
type Attr struct {
	K string `json:"k"`
	V string `json:"v"`
}

// A formats an attribute value deterministically: integers and strings
// verbatim, everything else through %v.
func A(k string, v any) Attr {
	switch x := v.(type) {
	case string:
		return Attr{K: k, V: x}
	default:
		return Attr{K: k, V: fmt.Sprintf("%v", x)}
	}
}

// Event is one structured trace record. VT is the virtual sim-clock
// stamp in ticks (the deterministic coordinate); Wall is the wall-clock
// stamp in Unix nanoseconds and stays zero (omitted from JSON) when the
// tracer runs in deterministic mode. Span events carry the virtual
// duration in Dur; point events leave it zero.
type Event struct {
	Seq   uint64 `json:"seq"`
	VT    int64  `json:"vt"`
	Wall  int64  `json:"wall,omitempty"`
	Name  string `json:"name"`
	Dur   int64  `json:"dur,omitempty"`
	Attrs []Attr `json:"attrs,omitempty"`
}

// lookup is the one attribute search: the first attribute named k.
func lookup(attrs []Attr, k string) (string, bool) {
	for _, a := range attrs {
		if a.K == k {
			return a.V, true
		}
	}
	return "", false
}

// Attr returns the value of the named attribute, "" when absent. Attr,
// AttrInt, AttrUint and LookupInt are the only attribute readers: every
// consumer of the event stream (see contract.go) folds through them.
func (e Event) Attr(k string) string {
	v, _ := lookup(e.Attrs, k)
	return v
}

// AttrInt returns the named attribute parsed as a base-10 integer, 0
// when absent or malformed.
func (e Event) AttrInt(k string) int64 {
	v, _ := e.LookupInt(k)
	return v
}

// LookupInt is AttrInt for consumers that must tell a zero from a
// missing value: ok is false when the attribute is absent or malformed.
func (e Event) LookupInt(k string) (v int64, ok bool) {
	v, err := strconv.ParseInt(e.Attr(k), 10, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// AttrUint returns the named attribute parsed as a base-10 unsigned
// integer, 0 when absent or malformed.
func (e Event) AttrUint(k string) uint64 {
	v, _ := strconv.ParseUint(e.Attr(k), 10, 64)
	return v
}

// A Sink receives every event a Tracer records, in sequence order, at
// the moment it enters the ring. It is the durability hook: the ring is
// a bounded in-memory window, a sink can be a crash-safe journal (see
// internal/journal). Record is called with the tracer lock held so the
// sink sees events in exactly ring order; implementations must never
// block (hand off to a bounded buffer and count what overflows) and
// must not call back into the tracer.
type Sink interface {
	Record(Event)
}

// TracerOptions configures a Tracer.
type TracerOptions struct {
	// Wall, when set, stamps each event with a wall clock (typically
	// func() int64 { return time.Now().UnixNano() }). Leaving it nil
	// selects deterministic mode: events carry only virtual time, so
	// for a fixed seed the serialized stream is byte-identical run to
	// run.
	Wall func() int64
	// Cap bounds the number of retained events (default 65536); the
	// oldest events are dropped first. Sequence numbers stay monotonic
	// across drops so readers can detect gaps.
	Cap int
	// Drops, when set, is incremented once per event evicted from the
	// ring, so ring overflow shows up in a metrics exposition (e.g. the
	// chronus_trace_dropped_events_total family) instead of having to be
	// inferred from sequence gaps.
	Drops *Counter
	// Sink, when set, additionally receives every recorded event in
	// sequence order — the attachment point for a durable journal.
	// Eviction from the ring does not remove an event from the sink, so
	// a journal-backed sink retains events the ring has long dropped.
	Sink Sink
}

// Tracer collects structured events in a bounded in-memory ring.
// It is safe for concurrent use; a nil *Tracer is a no-op.
type Tracer struct {
	mu      sync.Mutex
	events  []Event // ring, valid in [head, head+count)
	head    int
	count   int
	seq     uint64
	spanID  uint64
	dropped uint64
	wall    func() int64
	drops   *Counter
	sink    Sink
}

const defaultTracerCap = 65536

// NewTracer builds a tracer.
func NewTracer(o TracerOptions) *Tracer {
	cap := o.Cap
	if cap <= 0 {
		cap = defaultTracerCap
	}
	return &Tracer{events: make([]Event, cap), wall: o.Wall, drops: o.Drops, sink: o.Sink}
}

// Point records an instantaneous event at virtual time vt.
func (t *Tracer) Point(vt int64, name string, attrs ...Attr) {
	if t == nil {
		return
	}
	t.add(Event{VT: vt, Name: name, Attrs: attrs})
}

// Span records an event covering virtual times [start, end].
func (t *Tracer) Span(name string, start, end int64, attrs ...Attr) {
	if t == nil {
		return
	}
	t.add(Event{VT: start, Dur: end - start, Name: name, Attrs: attrs})
}

func (t *Tracer) add(e Event) {
	t.mu.Lock()
	t.seq++
	e.Seq = t.seq
	if t.wall != nil {
		e.Wall = t.wall()
	}
	if t.count == len(t.events) {
		// Ring full: overwrite the oldest.
		t.events[t.head] = e
		t.head = (t.head + 1) % len(t.events)
		t.dropped++
		t.drops.Inc()
	} else {
		t.events[(t.head+t.count)%len(t.events)] = e
		t.count++
	}
	if t.sink != nil {
		// Under the lock so the sink observes ring order; the Sink
		// contract forbids blocking here.
		t.sink.Record(e)
	}
	t.mu.Unlock()
}

// Dropped reports how many events were evicted from the ring.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Events returns the retained events with Seq > since, oldest first.
func (t *Tracer) Events(since uint64) []Event {
	return t.PageStats(since, 0).Events
}

// PageStats is one atomic page read from the ring: the events, the
// resume cursor, and the eviction accounting taken under the same lock
// so all four numbers describe the same instant. Reading Dropped() in
// a separate call can disagree with the page it is reported next to
// when writers race the reader between the two lock acquisitions.
type PageStats struct {
	// Events are up to limit retained events with Seq > since, oldest
	// first.
	Events []Event
	// Next is the cursor to pass as since on the next call: the Seq of
	// the last returned event, or since itself when nothing qualified.
	Next uint64
	// Skipped counts the events with Seq > since that the ring evicted
	// before this read could return them — the exact gap between the
	// caller's cursor and the first event of this page. A paging client
	// that sums Skipped across pages accounts for every sequence number
	// it never saw; without it the only signal is the global Dropped
	// total, which also counts evictions of events the client DID see
	// on earlier pages.
	Skipped uint64
	// Dropped is the ring's total eviction count at the moment of the
	// read.
	Dropped uint64
}

// PageStats returns up to limit retained events with Seq > since plus
// cursor and eviction accounting captured atomically; see the PageStats
// type for the field contracts. A limit <= 0 means no bound. It is the
// building block of paged trace endpoints such as chronusd's
// /trace?limit= and of every cursor-style fold.
func (t *Tracer) PageStats(since uint64, limit int) PageStats {
	if t == nil {
		return PageStats{Next: since}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ps := PageStats{Next: since, Dropped: t.dropped}
	// Sequence numbers are dense, so the retained ring always holds the
	// contiguous range [oldest, seq]: anything between the cursor and
	// oldest was evicted unseen, and the first event past the cursor sits
	// at ring offset since-oldest+1.
	oldest := t.seq - uint64(t.count) + 1
	if t.count > 0 && since+1 < oldest {
		ps.Skipped = oldest - since - 1
	}
	var from uint64
	if since >= oldest {
		from = since - oldest + 1
	}
	n := 0
	if from < uint64(t.count) {
		n = t.count - int(from)
	}
	if limit > 0 && n > limit {
		n = limit
	}
	out := make([]Event, n)
	if n > 0 {
		at := (t.head + int(from)) % len(t.events)
		copied := copy(out, t.events[at:])
		copy(out[copied:], t.events)
		ps.Next = out[n-1].Seq
	}
	ps.Events = out
	return ps
}

// WriteJSONL writes the retained events with Seq > since as one JSON
// object per line via the shared codec (EncodeJSONLine). In
// deterministic mode (no wall clock) the output for a fixed seed is
// byte-identical run to run.
func (t *Tracer) WriteJSONL(w io.Writer, since uint64) error {
	var buf []byte
	for _, e := range t.Events(since) {
		var err error
		buf, err = EncodeJSONLine(buf[:0], e)
		if err != nil {
			return err
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}
