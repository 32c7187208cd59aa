package dynflow

import (
	"fmt"
	"math"

	"github.com/chronus-sdn/chronus/internal/graph"
	"github.com/chronus-sdn/chronus/internal/obs"
)

// tracer is the allocation-light engine behind Validate, DelaySlack and
// ValidateJoint. A unit of the flow at switch v can only leave on
// (v, oldNext[v]) or (v, newNext[v]) — one flow, two rules per switch — so
// nothing outside init ∪ fin is ever loaded, and the tracer resolves just
// that footprint: the links the two paths use, numbered by ordinal, and per
// switch the ordinals its two rules depart on. Load accounting is keyed by
// (link ordinal, departure tick) packed into one integer, and per-trace
// visited sets are stamps. One tracer belongs to one Instance and is valid
// for one state of its graph and paths (see tracerFor).
type tracer struct {
	in *Instance
	// g, edits and idx identify the graph state and the paths the tables
	// were built from.
	g     *graph.Graph
	edits uint64
	idx   *pathIndex
	// links are the footprint links by ordinal: the initial path's in
	// order, then the final path's that are not on it.
	links []graph.Link
	// rules[v] is the ordinal v departs on under its old rule ([0]) and
	// its new one ([1]), or noRule, or noLink for a rule naming a link the
	// graph lacks; a unit blackholes on both.
	rules [][2]int32
	// maxTrace bounds how long a unit is in flight: a trace leaves each
	// switch at most once, so it crosses distinct footprint links, and
	// this is the sum of their delays.
	maxTrace Tick
	// visit stamps detect revisits without a per-trace map.
	visit []uint64
	stamp uint64
	// times backs the dense schedule view (see view).
	times []Tick
	// vm are the validator's instruments on registry vmReg.
	vm    validatorMetrics
	vmReg *obs.Registry

	// Load accounting scratch, reused across Validate calls. When the
	// (links × window) product is small the dense array is used, all zero
	// between calls; otherwise loads fall back to a map.
	loadVal []graph.Capacity
	touched []int64
	span    int64
	loadMap map[int64]graph.Capacity
	dense   bool
}

// denseLoadLimit caps the dense scratch size (entries).
const denseLoadLimit = 1 << 22

// beginLoads prepares load accounting for a window of the given span.
func (tr *tracer) beginLoads(span int64) {
	tr.span = span
	if tr.dense { // the previous window's entries
		for _, key := range tr.touched {
			tr.loadVal[key] = 0
		}
	}
	tr.touched = tr.touched[:0]
	need := int64(len(tr.links)) * span
	if need > 0 && need <= denseLoadLimit {
		tr.dense = true
		if int64(len(tr.loadVal)) < need {
			// Greedy trial schedules grow a tick at a time: half as much
			// again, so the scratch is not reallocated for each of them.
			tr.loadVal = make([]graph.Capacity, need+need/2)
		}
		return
	}
	tr.dense = false
	tr.loadMap = make(map[int64]graph.Capacity, 1024)
}

// addLoad accounts one unit of demand departing on ordinal at offset ticks
// past the window start.
func (tr *tracer) addLoad(ordinal int32, offset int64) {
	if offset < 0 || offset >= tr.span {
		// Dropping the load would under-report congestion; the window is
		// built from maxTrace so that this cannot happen.
		panic(fmt.Sprintf("dynflow: departure at offset %d outside the %d-tick load window", offset, tr.span))
	}
	key := int64(ordinal)*tr.span + offset
	if tr.dense {
		if tr.loadVal[key] == 0 {
			tr.touched = append(tr.touched, key)
		}
		tr.loadVal[key] += tr.in.Demand
		return
	}
	if _, ok := tr.loadMap[key]; !ok {
		tr.touched = append(tr.touched, key)
	}
	tr.loadMap[key] += tr.in.Demand
}

// loadAt reads an accounted load by key.
func (tr *tracer) loadAt(key int64) graph.Capacity {
	if tr.dense {
		return tr.loadVal[key]
	}
	return tr.loadMap[key]
}

const (
	noRule int32 = -1 - iota
	noLink
)

// newTracer resolves the instance's two paths against the current state
// of its graph: O(V) to lay out the per-switch tables, one link lookup per
// path hop.
func newTracer(in *Instance) *tracer {
	g, idx := in.G, in.ensureIndex()
	n := g.NumNodes()
	tr := &tracer{
		in:    in,
		g:     g,
		edits: g.Edits(),
		idx:   idx,
		rules: make([][2]int32, n),
		visit: make([]uint64, n),
	}
	for v := range tr.rules {
		tr.rules[v] = [2]int32{noRule, noRule}
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
	known := min(n, len(idx.oldNext)) // the index is as long as the graph it was built on
	for _, v := range in.Init {
		if v >= 0 && int(v) < known && idx.oldNext[v] != graph.Invalid && tr.rules[v][0] == noRule {
			tr.rules[v][0] = resolve(v, idx.oldNext[v])
		}
	}
	for _, v := range in.Fin {
		if v < 0 || int(v) >= known || idx.newNext[v] == graph.Invalid || tr.rules[v][1] != noRule {
			continue
		}
		if idx.newNext[v] == idx.oldNext[v] {
			tr.rules[v][1] = tr.rules[v][0]
		} else {
			tr.rules[v][1] = resolve(v, idx.newNext[v])
		}
	}
	return tr
}

// tracerFor returns the instance's cached tracer, rebuilding it when
// in.G was replaced or edited in place, or the paths were swapped, since
// the tracer was built. The (pointer, edit count, path index) comparison
// is exact: the tracer keeps its graph and index alive, so neither address
// can be reused, every mutator bumps the count, and ensureIndex builds a
// new index for new paths.
func tracerFor(in *Instance) *tracer {
	if tr := in.trc; tr != nil && tr.g == in.G && tr.edits == in.G.Edits() && tr.idx == in.ensureIndex() {
		return tr
	}
	in.trc = newTracer(in)
	return in.trc
}

// metrics returns the validator's instruments on r, built once per
// (tracer, registry) rather than on every validation.
func (tr *tracer) metrics(r *obs.Registry) *validatorMetrics {
	if tr.vmReg != r {
		tr.vm, tr.vmReg = newValidatorMetrics(r), r
	}
	return &tr.vm
}

// never is the activation tick of a switch the schedule does not touch.
const never = Tick(math.MaxInt64)

// view resolves s into the tracer's reusable dense schedule view that
// traces run against: activation ticks indexed by NodeID, with never
// standing in for unscheduled switches. The view is valid until the next
// call.
func (tr *tracer) view(s *Schedule) []Tick {
	if len(tr.times) != len(tr.visit) {
		tr.times = make([]Tick, len(tr.visit))
	}
	for i := range tr.times {
		tr.times[i] = never
	}
	for v, t := range s.Times {
		if v >= 0 && int(v) < len(tr.times) {
			tr.times[v] = t
		}
	}
	return tr.times
}

// traceHop is one forwarding decision of a stored trace: the unit reached
// node at tick and left on the link with the given ordinal.
type traceHop struct {
	node int32
	ord  int32
	tick Tick
}

// trace follows the unit emitted at tick emit from the source (see follow
// for base and hops) and returns the terminal status with its location
// and tick.
func (tr *tracer) trace(times []Tick, emit, base Tick, hops *[]traceHop) (status TraceStatus, at graph.NodeID, end Tick) {
	src := tr.in.Source()
	tr.stamp++
	tr.visit[src] = tr.stamp
	return tr.follow(times, src, emit, base, hops)
}

// follow is the one forwarding loop: it carries a unit that is at cur at
// tick t to its terminal status. Switches stamped with the current
// tr.stamp count as already visited, so a caller resuming a trace
// mid-path stamps its prefix first. The decisions taken are appended to
// *hops when hops is non-nil, and accounted as loads at ticks relative to
// base otherwise.
func (tr *tracer) follow(times []Tick, cur graph.NodeID, t, base Tick, hops *[]traceHop) (status TraceStatus, at graph.NodeID, end Tick) {
	dest := tr.in.Dest()
	for step := 0; step <= len(tr.visit); step++ {
		if cur == dest {
			return Delivered, graph.Invalid, t
		}
		// ruleAt over the resolved rules: the new one once cur has it and
		// has activated it, otherwise the old one.
		ord := tr.rules[cur][0]
		if nw := tr.rules[cur][1]; nw != noRule && t >= times[cur] {
			ord = nw
		}
		if ord < 0 {
			return Blackholed, cur, t
		}
		if hops != nil {
			*hops = append(*hops, traceHop{node: int32(cur), ord: ord, tick: t})
		} else {
			tr.addLoad(ord, int64(t-base))
		}
		t += Tick(tr.links[ord].Delay)
		cur = tr.links[ord].To
		if tr.visit[cur] == tr.stamp {
			return Looped, cur, t
		}
		tr.visit[cur] = tr.stamp
	}
	return Looped, cur, t
}
