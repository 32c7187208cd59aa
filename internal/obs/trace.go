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

// A formats an attribute value deterministically: strings verbatim, the
// builtin integer kinds and bool through strconv, everything else (named
// types included) through %v, which the strconv forms equal.
func A(k string, v any) Attr {
	switch x := v.(type) {
	case string:
		return Attr{K: k, V: x}
	case int:
		return Attr{K: k, V: strconv.FormatInt(int64(x), 10)}
	case int8:
		return Attr{K: k, V: strconv.FormatInt(int64(x), 10)}
	case int16:
		return Attr{K: k, V: strconv.FormatInt(int64(x), 10)}
	case int32:
		return Attr{K: k, V: strconv.FormatInt(int64(x), 10)}
	case int64:
		return Attr{K: k, V: strconv.FormatInt(x, 10)}
	case uint:
		return Attr{K: k, V: strconv.FormatUint(uint64(x), 10)}
	case uint8:
		return Attr{K: k, V: strconv.FormatUint(uint64(x), 10)}
	case uint16:
		return Attr{K: k, V: strconv.FormatUint(uint64(x), 10)}
	case uint32:
		return Attr{K: k, V: strconv.FormatUint(uint64(x), 10)}
	case uint64:
		return Attr{K: k, V: strconv.FormatUint(x, 10)}
	case bool:
		return Attr{K: k, V: strconv.FormatBool(x)}
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
// the moment it is stored. It is the durability hook: the tracer keeps a
// bounded in-memory window, a sink can be a crash-safe journal (see
// internal/journal). Record is called with the tracer lock held so the
// sink sees events in exactly store order; implementations must never
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
	// oldest events are dropped first. Storage grows as events arrive
	// instead of being allocated at Cap. Sequence numbers stay
	// monotonic across drops so readers can detect gaps.
	Cap int
	// Drops, when set, is incremented once per event evicted from the
	// tracer, so overflow shows up in a metrics exposition (e.g. the
	// chronus_trace_dropped_events_total family) instead of having to be
	// inferred from sequence gaps.
	Drops *Counter
	// Sink, when set, additionally receives every recorded event in
	// sequence order — the attachment point for a durable journal.
	// Eviction from the tracer does not remove an event from the sink,
	// so a journal-backed sink retains events the tracer has long
	// dropped.
	Sink Sink
}

// Tracer collects structured events in bounded in-memory storage that
// is written once: a slot, once it holds an event, is never written
// again. Readers are therefore handed windows onto the storage instead
// of copies (see PageStats). It is safe for concurrent use; a nil
// *Tracer is a no-op.
//
// Events live in segments of at most S = min(cap, 4096) slots, oldest
// first. The first segment starts small and doubles up to S, copying
// forward into a new array and leaving the old one to any page still
// holding it, so a short-lived tracer (one CLI run, one audited
// execution) allocates for the events it records rather than for its
// bound. Later segments are allocated whole and never copied. Once cap
// events are retained, each new event evicts the oldest: the oldest
// segment's window moves up one slot, and the segment is released when
// its window is empty. Storage stays within cap + S slots.
type Tracer struct {
	mu      sync.Mutex
	segs    []segment // oldest first; only the last one is written
	seg     int       // S, the slot count a segment grows to
	slots   int       // storage: the slots of every segment's array
	cap     int       // the bound count never exceeds
	count   int
	seq     uint64
	spanID  uint64
	dropped uint64
	wall    func() int64
	drops   *Counter
	sink    Sink
}

// segment is one array of storage. ev is the window of it that holds
// retained events: its start moves up as the tracer evicts, and its end
// as the tracer records; the array's slots past the end are unwritten.
type segment struct {
	ev   []Event
	size int // the array's length in slots
}

const (
	defaultTracerCap = 65536
	// maxSegment bounds S, a segment's slot count.
	maxSegment = 4096
	// initialSegment is the first segment's first allocation; it
	// doubles from here up to S.
	initialSegment = 256
)

// NewTracer builds a tracer.
func NewTracer(o TracerOptions) *Tracer {
	cap := o.Cap
	if cap <= 0 {
		cap = defaultTracerCap
	}
	return &Tracer{cap: cap, seg: min(cap, maxSegment),
		wall: o.Wall, drops: o.Drops, sink: o.Sink}
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
	if t.count == t.cap {
		// At the bound: evict the oldest before making room, so the
		// storage a new segment may take is counted without it.
		old := &t.segs[0]
		old.ev = old.ev[1:]
		if len(old.ev) == 0 {
			t.slots -= old.size
			*old = segment{} // release the array to the pages still holding it
			t.segs = t.segs[1:]
		}
		t.count--
		t.dropped++
		t.drops.Inc()
	}
	n := len(t.segs)
	if n == 0 || len(t.segs[n-1].ev) == cap(t.segs[n-1].ev) {
		t.room()
		n = len(t.segs)
	}
	last := &t.segs[n-1]
	last.ev = append(last.ev, e) // into an unwritten slot: room left one
	t.count++
	if t.sink != nil {
		// Under the lock so the sink observes store order; the Sink
		// contract forbids blocking here.
		t.sink.Record(e)
	}
	t.mu.Unlock()
}

// room gives the full (or missing) newest segment a free slot. The
// first segment, while it still holds every event recorded, doubles up
// to S; otherwise a new segment of S slots is started, or of fewer when
// S more would take storage past cap + S.
func (t *Tracer) room() {
	if n := len(t.segs); n == 1 && t.dropped == 0 && t.segs[0].size < t.seg {
		size := min(2*t.segs[0].size, t.seg)
		grown := make([]Event, len(t.segs[0].ev), size)
		copy(grown, t.segs[0].ev)
		t.slots += size - t.segs[0].size
		t.segs[0] = segment{ev: grown, size: size}
		return
	}
	size := min(t.seg, t.cap+t.seg-t.slots)
	if t.slots == 0 && t.dropped == 0 {
		size = min(t.seg, initialSegment)
	}
	t.slots += size
	t.segs = append(t.segs, segment{ev: make([]Event, 0, size), size: size})
}

// Dropped reports how many events were evicted from the tracer.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Events returns the retained events with Seq > since, oldest first.
// The slice is a read-only page: see PageStats.Events.
func (t *Tracer) Events(since uint64) []Event {
	return t.PageStats(since, 0).Events
}

// PageStats is one atomic page read from the tracer: the events, the
// resume cursor, and the eviction accounting taken under the same lock
// so all four numbers describe the same instant. Reading Dropped() in
// a separate call can disagree with the page it is reported next to
// when writers race the reader between the two lock acquisitions.
type PageStats struct {
	// Events are up to limit retained events with Seq > since, oldest
	// first. They are read-only: a page that lies inside one segment
	// is a window onto the tracer's storage, shared with every other
	// reader of those events, so neither the slice's elements nor the
	// events' Attrs may be modified. Its capacity ends at its length,
	// so appending to it copies rather than reaching a slot the tracer
	// writes next. A page of no events is empty, not nil.
	Events []Event
	// Next is the cursor to pass as since on the next call: the Seq of
	// the last returned event, or since itself when nothing qualified.
	Next uint64
	// Skipped counts the events with Seq > since that the tracer
	// evicted before this read could return them — the exact gap
	// between the caller's cursor and the first event of this page. A
	// paging client that sums Skipped across pages accounts for every
	// sequence number it never saw; without it the only signal is the
	// global Dropped total, which also counts evictions of events the
	// client DID see on earlier pages.
	Skipped uint64
	// Dropped is the tracer's total eviction count at the moment of the
	// read.
	Dropped uint64
}

// PageStats returns up to limit retained events with Seq > since plus
// cursor and eviction accounting captured atomically; see the PageStats
// type for the field contracts. A limit <= 0 means no bound. It is the
// building block of paged trace endpoints such as chronusd's
// /trace?limit= and of every cursor-style fold.
//
// A page inside one segment is returned as a window, without copying
// or allocating; only a page that crosses segments is copied.
func (t *Tracer) PageStats(since uint64, limit int) PageStats {
	if t == nil {
		return PageStats{Next: since}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ps := PageStats{Events: []Event{}, Next: since, Dropped: t.dropped}
	// Sequence numbers are dense, so storage always holds the contiguous
	// range [oldest, seq]: anything between the cursor and oldest was
	// evicted unseen, and the first event past the cursor is the
	// (since-oldest+1)-th retained one.
	oldest := t.seq - uint64(t.count) + 1
	if t.count > 0 && since+1 < oldest {
		ps.Skipped = oldest - since - 1
	}
	var from uint64
	if since >= oldest {
		from = since - oldest + 1
	}
	if from >= uint64(t.count) {
		return ps
	}
	n := t.count - int(from)
	if limit > 0 && n > limit {
		n = limit
	}
	at, i := int(from), 0
	for at >= len(t.segs[i].ev) {
		at -= len(t.segs[i].ev)
		i++
	}
	if seg := t.segs[i].ev; at+n <= len(seg) {
		ps.Events = seg[at : at+n : at+n]
	} else {
		out := make([]Event, 0, n)
		for ; len(out) < n; i, at = i+1, 0 {
			seg := t.segs[i].ev[at:]
			out = append(out, seg[:min(len(seg), n-len(out))]...)
		}
		ps.Events = out
	}
	ps.Next = ps.Events[n-1].Seq
	return ps
}

// writeChunk is how many encoded bytes WriteJSONL gathers per Write.
const writeChunk = 64 << 10

// WriteJSONL writes the retained events with Seq > since as one JSON
// object per line via the shared codec (EncodeJSONLine), handing w
// whole lines in chunks of about 64 KiB. In deterministic mode (no wall
// clock) the output for a fixed seed is byte-identical run to run.
func (t *Tracer) WriteJSONL(w io.Writer, since uint64) error {
	var buf []byte
	for _, e := range t.Events(since) {
		var err error
		if buf, err = EncodeJSONLine(buf, e); err != nil {
			return err
		}
		if len(buf) >= writeChunk {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		_, err := w.Write(buf)
		return err
	}
	return nil
}
