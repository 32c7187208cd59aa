package obs

import (
	"cmp"
	"slices"
	"strconv"
	"strings"
)

// SpanID identifies one span within a Tracer's event stream. IDs are
// allocated sequentially per tracer, so for a fixed seed and virtual
// clock the whole span tree — IDs included — is byte-deterministic.
// Zero is "no span" and doubles as the nil parent.
type SpanID uint64

// SpanEventName is the event name under which finished spans are
// recorded in the tracer ring. Spans reuse the flat event stream (one
// event per finished span, emitted at End) rather than a second buffer,
// so paging, drop accounting and JSONL export all keep working, and
// consumers that switch on event names (the auditor, the mutp
// timeline) can ignore spans by skipping this one name.
const SpanEventName = "span"

// Reserved attribute keys that encode the span structure inside the
// flat event. They always come first, in this order, followed by any
// user attributes.
const (
	spanAttrID     = "span"
	spanAttrParent = "parent"
	spanAttrOp     = KeyOp
)

// SpanCtx is an in-flight span. It is created by StartSpan and records
// a single "span" event when End is called; until then nothing enters
// the ring, so an abandoned span simply never appears. A nil *SpanCtx
// is a no-op (returned by a nil tracer), which keeps instrumented call
// sites free of tracing conditionals.
type SpanCtx struct {
	t      *Tracer
	id     SpanID
	parent SpanID
	op     string
	start  int64
	attrs  []Attr
}

// nextSpanID allocates the next span ID under the tracer lock.
func (t *Tracer) nextSpanID() SpanID {
	t.mu.Lock()
	t.spanID++
	id := SpanID(t.spanID)
	t.mu.Unlock()
	return id
}

// StartSpan opens a span named op at virtual time vt under parent
// (zero for a root). The span is recorded only when End is called.
func (t *Tracer) StartSpan(vt int64, op string, parent SpanID, attrs ...Attr) *SpanCtx {
	if t == nil {
		return nil
	}
	return &SpanCtx{t: t, id: t.nextSpanID(), parent: parent, op: op, start: vt, attrs: attrs}
}

// EmitSpan records a complete span covering [start, end] in one call
// and returns its ID — the shape used for instantaneous hops like a
// message send, where there is nothing to defer.
func (t *Tracer) EmitSpan(op string, parent SpanID, start, end int64, attrs ...Attr) SpanID {
	if t == nil {
		return 0
	}
	s := t.StartSpan(start, op, parent, attrs...)
	s.End(end)
	return s.id
}

// SpanID returns the span's ID, zero on a nil span.
func (s *SpanCtx) SpanID() SpanID {
	if s == nil {
		return 0
	}
	return s.id
}

// End closes the span at virtual time vt, appending any extra
// attributes, and records it as one event. Call it exactly once.
func (s *SpanCtx) End(vt int64, attrs ...Attr) {
	if s == nil {
		return
	}
	all := make([]Attr, 0, 3+len(s.attrs)+len(attrs))
	all = append(all, Attr{K: spanAttrID, V: strconv.FormatUint(uint64(s.id), 10)})
	if s.parent != 0 {
		all = append(all, Attr{K: spanAttrParent, V: strconv.FormatUint(uint64(s.parent), 10)})
	}
	all = append(all, Attr{K: spanAttrOp, V: s.op})
	all = append(all, s.attrs...)
	all = append(all, attrs...)
	s.t.add(Event{VT: s.start, Dur: vt - s.start, Name: SpanEventName, Attrs: all})
}

// SpanNode is one reconstructed span in a forest. Attrs holds only the
// user attributes; the structural ones (span/parent/op) are lifted
// into fields.
type SpanNode struct {
	ID       SpanID      `json:"id"`
	Parent   SpanID      `json:"parent,omitempty"`
	Op       string      `json:"op"`
	Seq      uint64      `json:"seq"`
	Start    int64       `json:"start"`
	End      int64       `json:"end"`
	Attrs    []Attr      `json:"attrs,omitempty"`
	Children []*SpanNode `json:"children,omitempty"`
}

// Attr returns the value of the named user attribute, "" if absent.
func (n *SpanNode) Attr(key string) string {
	v, _ := lookup(n.Attrs, key)
	return v
}

// Walk visits n and every descendant in deterministic (sorted) order.
func (n *SpanNode) Walk(f func(*SpanNode)) {
	f(n)
	for _, c := range n.Children {
		c.Walk(f)
	}
}

// BuildSpanForest reconstructs span trees from an event slice (other
// event names are ignored). Two linking rules apply:
//
//  1. In-process: a span's parent attribute names another span ID.
//  2. Cross-process: switchd cannot know the controller's span IDs, so
//     a parentless switch-side span (op prefixed "sw.") carrying an
//     "xid" attribute is attached under the controller-side span (op
//     prefixed "ctl.") that carries the same xid — the OFP transaction
//     ID correlates the two halves of each FlowMod/Barrier round-trip.
//
// Spans whose declared parent is not in the slice (paged out or
// dropped) surface as roots. Roots and children are sorted by
// (Start, ID), so for a deterministic tracer the forest — and its JSON
// encoding — is byte-identical run to run.
func BuildSpanForest(events []Event) []*SpanNode {
	// Size the two backing arrays first: every node lives in one
	// []SpanNode, and its user attributes in an exact-size window of one
	// shared []Attr.
	spans, attrCount := 0, 0
	for _, e := range events {
		if e.Name == SpanEventName {
			spans++
			attrCount += len(e.Attrs)
		}
	}
	store := make([]SpanNode, 0, spans)
	attrs := make([]Attr, 0, attrCount)
	byID := make(map[SpanID]*SpanNode, spans)
	ctlByXid := make(map[string]SpanID)
	for _, e := range events {
		if e.Name != SpanEventName {
			continue
		}
		n := SpanNode{Seq: e.Seq, Start: e.VT, End: e.VT + e.Dur}
		from := len(attrs)
		for _, a := range e.Attrs {
			switch a.K {
			case spanAttrID:
				v, _ := strconv.ParseUint(a.V, 10, 64)
				n.ID = SpanID(v)
			case spanAttrParent:
				v, _ := strconv.ParseUint(a.V, 10, 64)
				n.Parent = SpanID(v)
			case spanAttrOp:
				n.Op = a.V
			default:
				attrs = append(attrs, a)
			}
		}
		if n.ID == 0 {
			attrs = attrs[:from]
			continue // malformed
		}
		if len(attrs) > from {
			n.Attrs = attrs[from:len(attrs):len(attrs)]
		}
		store = append(store, n)
		byID[n.ID] = &store[len(store)-1]
		if strings.HasPrefix(n.Op, "ctl.") {
			if xid := n.Attr(KeyXid); xid != "" {
				ctlByXid[xid] = n.ID
			}
		}
	}
	for i := range store {
		n := &store[i]
		if n.Parent == 0 && strings.HasPrefix(n.Op, "sw.") {
			if xid := n.Attr(KeyXid); xid != "" {
				if pid, ok := ctlByXid[xid]; ok && pid != n.ID {
					n.Parent = pid
				}
			}
		}
	}
	var roots []*SpanNode
	for i := range store {
		n := &store[i]
		if p, ok := byID[n.Parent]; ok && n.Parent != n.ID {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	for i := range store {
		slices.SortFunc(store[i].Children, byStartID)
	}
	slices.SortFunc(roots, byStartID)
	return roots
}

// byStartID orders sibling spans by (Start, ID).
func byStartID(a, b *SpanNode) int {
	if c := cmp.Compare(a.Start, b.Start); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}
