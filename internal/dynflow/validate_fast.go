package dynflow

import (
	"fmt"
	"math"
	"slices"

	"github.com/chronus-sdn/chronus/internal/graph"
)

// tracer is the allocation-light engine behind Validate, ValidateJoint and
// the Kernel. A unit of the flow at switch v can only leave on
// (v, oldNext[v]) or (v, newNext[v]) — one flow, two rules per switch — so
// nothing outside init ∪ fin is ever loaded, and the tracer resolves just
// that footprint: the links the two paths use, numbered by ordinal, and per
// switch the ordinals its two rules depart on. Its per-switch tables span
// the footprint's node ids (see pathIndex), not the graph. Load accounting
// is keyed by (departure tick, link ordinal) packed into one integer, and
// per-trace visited sets are stamps. A tracer is per-call state: it lives
// in the pooled scratch and each call compiles it afresh (see compile), so
// it reflects the graph and the paths as they are, and one Instance can be
// validated from several goroutines at once.
type tracer struct {
	in *Instance
	// lo is the node id of slot 0 of the per-switch tables.
	lo graph.NodeID
	// links are the footprint links by ordinal: the initial path's in
	// order, then the final path's that are not on it.
	links []graph.Link
	// rules[v−lo] is the ordinal v departs on under its old rule ([0]) and
	// its new one ([1]), or noRule, or noLink for a rule naming a link the
	// graph lacks; a unit blackholes on both.
	rules [][2]int32
	// maxTrace bounds how long a unit is in flight: a trace leaves each
	// switch at most once, so it crosses distinct footprint links, and
	// this is the sum of their delays.
	maxTrace Tick
	// visit stamps detect revisits without a per-trace map. The stamp
	// only grows, so entries left by an earlier call are stale.
	visit []uint64
	stamp uint64
	// times is the dense schedule view traces run against (see view).
	times []Tick
}

// loadWindow is the load accounting of Validate and ValidateJoint: the
// demand departing on each load row (a footprint link) at each tick offset
// past base, keyed tick-major as offset × rows + row. A flow's link
// ordinals map onto rows through rowOf, or are the rows themselves when
// rowOf is nil. When the (rows × window) product is small the dense array
// is used, all zero between uses; otherwise loads fall back to a map. It
// lives in the pooled scratch (see getScratch), so a fresh Instance does
// not allocate one.
type loadWindow struct {
	demand     graph.Capacity
	rowOf      []int32
	base       Tick
	rows, span int64
	val        []graph.Capacity
	touched    []int64
	m          map[int64]graph.Capacity
	dense      bool
}

// denseLoadLimit caps the dense scratch size (entries).
const denseLoadLimit = 1 << 22

// begin prepares accounting of rows links over span ticks from base.
func (lw *loadWindow) begin(rows int, base Tick, span int64) {
	lw.base, lw.rows, lw.span = base, int64(rows), span
	lw.touched = lw.touched[:0]
	need := lw.rows * span
	lw.dense = need > 0 && need <= denseLoadLimit
	if !lw.dense {
		lw.m = make(map[int64]graph.Capacity, 1024)
		return
	}
	if int64(len(lw.val)) < need {
		// Half as much again: windows that grow a tick at a time reuse it.
		lw.val = make([]graph.Capacity, need+need/2)
	}
}

// add accounts one unit of demand departing on ordinal at tick t.
func (lw *loadWindow) add(ordinal int32, t Tick) {
	offset := int64(t - lw.base)
	if offset < 0 || offset >= lw.span {
		// Dropping the load would under-report congestion; the window is
		// built from maxTrace so that this cannot happen.
		panic(fmt.Sprintf("dynflow: departure at offset %d outside the %d-tick load window", offset, lw.span))
	}
	row := int64(ordinal)
	if lw.rowOf != nil {
		row = int64(lw.rowOf[ordinal])
	}
	key := offset*lw.rows + row
	if lw.dense {
		if lw.val[key] == 0 {
			lw.touched = append(lw.touched, key)
		}
		lw.val[key] += lw.demand
		return
	}
	if _, ok := lw.m[key]; !ok {
		lw.touched = append(lw.touched, key)
	}
	lw.m[key] += lw.demand
}

// end zeroes what the window touched, ready for the next begin.
func (lw *loadWindow) end() {
	if lw.dense {
		for _, key := range lw.touched {
			lw.val[key] = 0
		}
	}
	lw.m, lw.rowOf = nil, nil
}

const (
	noRule int32 = -1 - iota
	noLink
)

// compile resolves in's two paths against the current state of its graph
// into tr, reusing tr's storage: one table entry per switch of the
// footprint's id span, one link lookup per path hop.
func (tr *tracer) compile(in *Instance) {
	g, idx := in.G, in.ensureIndex()
	span := len(idx.oldNext)
	tr.in, tr.lo, tr.maxTrace = in, idx.lo, 0
	tr.links = tr.links[:0]
	tr.rules = slices.Grow(tr.rules[:0], span)[:span]
	tr.visit = slices.Grow(tr.visit[:0], span)[:span]
	for k := range tr.rules {
		tr.rules[k] = [2]int32{noRule, noRule}
	}
	resolve := func(v, to graph.NodeID) int32 {
		l, ok := g.Link(v, to)
		if !ok {
			return noLink
		}
		tr.links = append(tr.links, l)
		tr.maxTrace += Tick(l.Delay)
		return int32(len(tr.links) - 1)
	}
	for _, v := range in.Init {
		if k, ok := idx.slot(v); ok && idx.oldNext[k] != graph.Invalid && tr.rules[k][0] == noRule {
			tr.rules[k][0] = resolve(v, idx.oldNext[k])
		}
	}
	for _, v := range in.Fin {
		k, ok := idx.slot(v)
		if !ok || idx.newNext[k] == graph.Invalid || tr.rules[k][1] != noRule {
			continue
		}
		if idx.newNext[k] == idx.oldNext[k] {
			tr.rules[k][1] = tr.rules[k][0]
		} else {
			tr.rules[k][1] = resolve(v, idx.newNext[k])
		}
	}
}

// never is the activation tick of a switch the schedule does not touch.
const never = Tick(math.MaxInt64)

// view resolves s into tr.times, a dense schedule view of the tracer's
// span that traces run against: activation ticks by slot, with never
// standing in for unscheduled switches. Switches outside the span have no
// rule for the flow, so their entries only matter to the window
// (Schedule.End).
func (tr *tracer) view(s *Schedule) {
	v := slices.Grow(tr.times[:0], len(tr.rules))[:len(tr.rules)]
	for k := range v {
		v[k] = never
	}
	for n, t := range s.Times {
		if k := int(n - tr.lo); k >= 0 && k < len(v) {
			v[k] = t
		}
	}
	tr.times = v
}

// traceHop is one forwarding decision of a stored trace: the unit reached
// node at tick and left on the link with the given ordinal.
type traceHop struct {
	node int32
	ord  int32
	tick Tick
}

// trace is the one forwarding loop of Validate and ValidateJoint: it
// carries the unit emitted at tick emit from the source to its terminal
// status, accounting each departure in lw, and returns the status with its
// location and tick.
func (tr *tracer) trace(emit Tick, lw *loadWindow) (status TraceStatus, at graph.NodeID, end Tick) {
	cur, t, dest, times := tr.in.Source(), emit, tr.in.Dest(), tr.times
	tr.stamp++
	tr.visit[cur-tr.lo] = tr.stamp
	for step := 0; step <= len(tr.visit); step++ {
		if cur == dest {
			return Delivered, graph.Invalid, t
		}
		// ruleAt over the resolved rules: the new one once cur has it and
		// has activated it, otherwise the old one.
		k := cur - tr.lo
		ord := tr.rules[k][0]
		if nw := tr.rules[k][1]; nw != noRule && t >= times[k] {
			ord = nw
		}
		if ord < 0 {
			return Blackholed, cur, t
		}
		lw.add(ord, t)
		t += Tick(tr.links[ord].Delay)
		cur = tr.links[ord].To
		if tr.visit[cur-tr.lo] == tr.stamp {
			return Looped, cur, t
		}
		tr.visit[cur-tr.lo] = tr.stamp
	}
	return Looped, cur, t
}
