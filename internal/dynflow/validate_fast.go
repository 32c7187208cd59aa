package dynflow

import (
	"math"

	"github.com/chronus-sdn/chronus/internal/graph"
)

// tracer is the allocation-light engine behind Validate and TraceEmission:
// the graph's adjacency resolved into dense per-node slices with link
// ordinals (the skeleton of the time-expanded network G_T), per-trace
// visited sets via stamping, and load accounting keyed by (link ordinal,
// departure tick) packed into one integer. One tracer belongs to one
// Instance and is valid for one state of its graph (see tracerFor).
type tracer struct {
	in *Instance
	// g and edits identify the graph state the adjacency was built from.
	g     *graph.Graph
	edits uint64
	// out[v] lists v's outgoing links with their ordinals.
	out   [][]tracerLink
	caps  []graph.Capacity  // by ordinal
	pairs [][2]graph.NodeID // ordinal -> (from, to)
	// visit stamps detect revisits without a per-trace map.
	visit []uint64
	stamp uint64
	// times backs the dense schedule view (see view).
	times []Tick

	// Load accounting scratch, reused across Validate calls. When the
	// (links × window) product is small the dense epoch-stamped array is
	// used; otherwise loads fall back to a map.
	loadVal   []graph.Capacity
	loadEpoch []uint32
	epoch     uint32
	touched   []int64
	span      int64
	loadMap   map[int64]graph.Capacity
	dense     bool
}

// denseLoadLimit caps the dense scratch size (entries).
const denseLoadLimit = 1 << 22

// beginLoads prepares load accounting for a window of the given span.
func (tr *tracer) beginLoads(span int64) {
	tr.span = span
	tr.touched = tr.touched[:0]
	need := int64(len(tr.caps)) * span
	if need > 0 && need <= denseLoadLimit {
		tr.dense = true
		if int64(len(tr.loadVal)) < need {
			tr.loadVal = make([]graph.Capacity, need)
			tr.loadEpoch = make([]uint32, need)
		}
		tr.epoch++
		if tr.epoch == 0 { // wrapped: clear stamps
			for i := range tr.loadEpoch {
				tr.loadEpoch[i] = 0
			}
			tr.epoch = 1
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
		return // outside the accounted window (cannot happen by window construction)
	}
	key := int64(ordinal)*tr.span + offset
	if tr.dense {
		if tr.loadEpoch[key] != tr.epoch {
			tr.loadEpoch[key] = tr.epoch
			tr.loadVal[key] = 0
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

type tracerLink struct {
	to      graph.NodeID
	delay   Tick
	ordinal int32
}

// newTracer builds the instance's tracer from the current state of its
// graph: the delay-annotated adjacency with stable link ordinals, O(V+E).
func newTracer(in *Instance) *tracer {
	g := in.G
	n := g.NumNodes()
	tr := &tracer{
		in:    in,
		g:     g,
		edits: g.Edits(),
		out:   make([][]tracerLink, n),
		visit: make([]uint64, n),
	}
	ord := int32(0)
	for _, id := range g.Nodes() {
		for _, l := range g.Out(id) {
			tr.out[id] = append(tr.out[id], tracerLink{to: l.To, delay: Tick(l.Delay), ordinal: ord})
			tr.caps = append(tr.caps, l.Cap)
			tr.pairs = append(tr.pairs, [2]graph.NodeID{id, l.To})
			ord++
		}
	}
	return tr
}

// tracerFor returns the instance's cached tracer, rebuilding it when
// in.G was replaced or edited in place since the tracer was built. The
// (pointer, edit count) comparison is exact: the tracer keeps its graph
// alive, so the address cannot be reused, and every mutator bumps the
// count.
func tracerFor(in *Instance) *tracer {
	if tr := in.trc; tr != nil && tr.g == in.G && tr.edits == in.G.Edits() {
		return tr
	}
	in.trc = newTracer(in)
	return in.trc
}

func (tr *tracer) link(from, to graph.NodeID) (tracerLink, bool) {
	if int(from) >= len(tr.out) {
		return tracerLink{}, false
	}
	for _, l := range tr.out[from] {
		if l.to == to {
			return l, true
		}
	}
	return tracerLink{}, false
}

// fwd is the dense view of one (instance, schedule) pair that traces run
// against: per-switch next hops and activation ticks indexed by NodeID,
// with never standing in for unscheduled switches.
type fwd struct {
	idx   *pathIndex
	times []Tick
}

// never is the activation tick of a switch the schedule does not touch.
const never = Tick(math.MaxInt64)

// view resolves s into the tracer's reusable dense schedule view. The
// view is valid until the next call.
func (tr *tracer) view(s *Schedule) fwd {
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
	return fwd{idx: tr.in.ensureIndex(), times: tr.times}
}

// next is NextHopAt over the dense view.
func (f fwd) next(v graph.NodeID, t Tick) graph.NodeID {
	return ruleAt(f.idx.newNext[v], f.idx.oldNext[v], t >= f.times[v])
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
func (tr *tracer) trace(f fwd, emit, base Tick, hops *[]traceHop) (status TraceStatus, at graph.NodeID, end Tick) {
	src := tr.in.Source()
	tr.stamp++
	tr.visit[src] = tr.stamp
	return tr.follow(f, src, emit, base, hops)
}

// follow is the one forwarding loop: it carries a unit that is at cur at
// tick t to its terminal status. Switches stamped with the current
// tr.stamp count as already visited, so a caller resuming a trace
// mid-path stamps its prefix first. The decisions taken are appended to
// *hops when hops is non-nil, and accounted as loads at ticks relative to
// base otherwise.
func (tr *tracer) follow(f fwd, cur graph.NodeID, t, base Tick, hops *[]traceHop) (status TraceStatus, at graph.NodeID, end Tick) {
	dest := tr.in.Dest()
	for step := 0; step <= len(tr.visit); step++ {
		if cur == dest {
			return Delivered, graph.Invalid, t
		}
		nh := f.next(cur, t)
		if nh == graph.Invalid {
			return Blackholed, cur, t
		}
		l, ok := tr.link(cur, nh)
		if !ok {
			return Blackholed, cur, t
		}
		if hops != nil {
			*hops = append(*hops, traceHop{node: int32(cur), ord: l.ordinal, tick: t})
		} else {
			tr.addLoad(l.ordinal, int64(t-base))
		}
		t += l.delay
		cur = nh
		if int(cur) < len(tr.visit) && tr.visit[cur] == tr.stamp {
			return Looped, cur, t
		}
		tr.visit[cur] = tr.stamp
	}
	return Looped, cur, t
}
