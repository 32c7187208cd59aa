package dynflow

import (
	"fmt"
	"sort"

	"github.com/chronus-sdn/chronus/internal/graph"
)

// Hop is one link traversal of an emission trace.
type Hop struct {
	From   graph.NodeID
	To     graph.NodeID
	Depart Tick // tick the unit leaves From
	Arrive Tick // Depart + link delay
}

// TraceStatus classifies how an emission trace terminated.
type TraceStatus int

const (
	// Delivered means the unit reached the destination.
	Delivered TraceStatus = iota + 1
	// Looped means the unit revisited a switch (Definition 2 violation).
	Looped
	// Blackholed means a switch had no matching rule.
	Blackholed
)

func (ts TraceStatus) String() string {
	switch ts {
	case Delivered:
		return "delivered"
	case Looped:
		return "looped"
	case Blackholed:
		return "blackholed"
	default:
		return fmt.Sprintf("TraceStatus(%d)", int(ts))
	}
}

// Trace is the journey of the flow unit emitted at tick Emit.
type Trace struct {
	Emit   Tick
	Hops   []Hop
	Status TraceStatus
	// At identifies where a loop or blackhole occurred (the revisited or
	// rule-less switch); Invalid for delivered traces.
	At graph.NodeID
}

// TraceEmission follows the flow unit emitted at tick emit from the source
// through the time-varying configuration induced by s.
func TraceEmission(in *Instance, s *Schedule, emit Tick) Trace {
	tr := Trace{Emit: emit, At: graph.Invalid}
	cur := in.Source()
	t := emit
	visited := make(map[graph.NodeID]struct{}, len(in.Init)+len(in.Fin))
	visited[cur] = struct{}{}
	dest := in.Dest()
	// A simple trace visits each switch at most once; NumNodes+1 iterations
	// therefore always suffice before a revisit is detected.
	for step := 0; step <= in.G.NumNodes(); step++ {
		if cur == dest {
			tr.Status = Delivered
			return tr
		}
		nh := NextHopAt(in, s, cur, t)
		if nh == graph.Invalid {
			tr.Status = Blackholed
			tr.At = cur
			return tr
		}
		l, ok := in.G.Link(cur, nh)
		if !ok {
			// Rules always reference real links; treat a dangling rule as a
			// blackhole rather than panicking in the validator.
			tr.Status = Blackholed
			tr.At = cur
			return tr
		}
		tr.Hops = append(tr.Hops, Hop{From: cur, To: nh, Depart: t, Arrive: t + Tick(l.Delay)})
		t += Tick(l.Delay)
		cur = nh
		if _, seen := visited[cur]; seen {
			tr.Status = Looped
			tr.At = cur
			return tr
		}
		visited[cur] = struct{}{}
	}
	// Unreachable with revisit detection, but keep the validator total.
	tr.Status = Looped
	tr.At = cur
	return tr
}

// LinkInstance identifies a time-extended link ⟨u(t), v(t+σ)⟩ by its
// physical link and departure tick.
type LinkInstance struct {
	From   graph.NodeID
	To     graph.NodeID
	Depart Tick
}

// before is the report order of link instances: by departure tick, ties
// broken by (From, To).
func (a LinkInstance) before(b LinkInstance) bool {
	if a.Depart != b.Depart {
		return a.Depart < b.Depart
	}
	if a.From != b.From {
		return a.From < b.From
	}
	return a.To < b.To
}

// CongestionEvent records a time-extended link whose accumulated load
// exceeds its capacity.
type CongestionEvent struct {
	Link LinkInstance
	Load graph.Capacity
	Cap  graph.Capacity
}

// LoopEvent records an emission that revisited a switch.
type LoopEvent struct {
	Emit Tick
	At   graph.NodeID
	Tick Tick // arrival tick at the revisited switch
}

// BlackholeEvent records an emission that hit a switch with no rule.
type BlackholeEvent struct {
	Emit Tick
	At   graph.NodeID
	Tick Tick
}

// Report is the outcome of validating a schedule against an instance.
type Report struct {
	Congestion []CongestionEvent
	Loops      []LoopEvent
	Blackholes []BlackholeEvent
	// Window is the emission tick range that was traced, inclusive.
	WindowStart, WindowEnd Tick
	// LatestArrival is the latest tick at which any traced unit was still
	// in flight: after it, the data plane is in the static post-schedule
	// state. Schedulers use it as the drain horizon.
	LatestArrival Tick
}

// OK reports whether the schedule is congestion-free, loop-free and
// blackhole-free over the validation window.
func (r *Report) OK() bool {
	return len(r.Congestion) == 0 && len(r.Loops) == 0 && len(r.Blackholes) == 0
}

// CongestedLinkInstances returns the number of distinct over-capacity
// time-extended links (the quantity plotted in the paper's Fig. 8).
func (r *Report) CongestedLinkInstances() int { return len(r.Congestion) }

// Summary renders a one-line human-readable result.
func (r *Report) Summary() string {
	if r.OK() {
		return fmt.Sprintf("ok (window %d..%d)", r.WindowStart, r.WindowEnd)
	}
	return fmt.Sprintf("violations: %d congested link instances, %d loops, %d blackholes (window %d..%d)",
		len(r.Congestion), len(r.Loops), len(r.Blackholes), r.WindowStart, r.WindowEnd)
}

// Validate traces every relevant emission tick and checks Definitions 2 and
// 3 of the paper at every moment in time.
//
// The emission window is [Start − φ(p_init), End], extended past End until
// every unit that could share a link instance with an in-flight mixed-
// configuration unit has been traced. Emissions after the extension follow
// the pure final configuration and cannot collide pairwise (consecutive
// emissions depart each final-path link at strictly increasing ticks), so
// the window is sufficient as well as finite.
func Validate(in *Instance, s *Schedule) *Report {
	x := getScratch()
	defer putScratch(x)
	tr := &x.tracers(1)[0]
	tr.compile(in)
	start := s.Start - Tick(in.Init.Delay(in.G))
	r := &Report{WindowStart: start}
	flow := [1]flowWindow{{tr: tr, s: s, demand: in.Demand, start: start, end: s.End()}}
	x.validateFlows(flow[:], tr.links, func(_ int, e Tick, status TraceStatus, at graph.NodeID, arrive Tick) {
		if status == Looped {
			r.Loops = append(r.Loops, LoopEvent{Emit: e, At: at, Tick: arrive})
		} else {
			r.Blackholes = append(r.Blackholes, BlackholeEvent{Emit: e, At: at, Tick: arrive})
		}
	}, func(l graph.Link, depart Tick, load graph.Capacity) {
		li := LinkInstance{From: l.From, To: l.To, Depart: depart}
		r.Congestion = append(r.Congestion, CongestionEvent{Link: li, Load: load, Cap: l.Cap})
	})
	r.WindowEnd, r.LatestArrival = flow[0].latest, flow[0].latest
	x.countRun(in.Obs, flow[0].latest-start+1)
	sort.Slice(r.Congestion, func(i, j int) bool { return r.Congestion[i].Link.before(r.Congestion[j].Link) })
	sort.Slice(r.Loops, func(i, j int) bool { return r.Loops[i].Emit < r.Loops[j].Emit })
	sort.Slice(r.Blackholes, func(i, j int) bool { return r.Blackholes[i].Emit < r.Blackholes[j].Emit })
	return r
}

// flowWindow is one flow of a validation run: its tracer and schedule,
// the load rows its link ordinals map to (nil: the ordinals themselves),
// its demand, and its own emission window from start (Start − φ(p_init))
// to end (the schedule's End). validateFlows sets latest, the latest
// arrival of those emissions.
type flowWindow struct {
	tr                 *tracer
	s                  *Schedule
	rowOf              []int32
	demand             graph.Capacity
	start, end, latest Tick
}

// validateFlows is the one emission loop of Validate and ValidateJoint: it
// traces each flow's emissions into x.lw, each tick once. A flow's own
// window runs from start to its latest arrival, and its loops and
// blackholes there go to event with the flow's index. Beyond it emissions
// only load, out to the joint window from the earliest start to the latest
// tail (the latest arrival among a flow's last φ(p_init) emissions up to
// end): a steady flow keeps loading its links while another migrates. One
// flow's joint window lies inside its own. links[row] is the link of load
// row row; each over-capacity link instance goes to over.
func (x *scratch) validateFlows(flows []flowWindow, links []graph.Link,
	event func(flow int, e Tick, status TraceStatus, at graph.NodeID, arrive Tick),
	over func(l graph.Link, depart Tick, load graph.Capacity)) {
	lo, endMax, drain := flows[0].start, flows[0].end, Tick(0)
	for _, f := range flows {
		lo, endMax, drain = min(lo, f.start), max(endMax, f.end), max(drain, f.tr.maxTrace)
	}
	// Departures stay within endMax + 2 × drain: no flow emits past its own
	// latest arrival or the latest tail, both at most end + maxTrace, and
	// a trace lasts at most maxTrace more.
	lw := &x.lw
	lw.begin(len(links), lo, int64(endMax-lo)+2*int64(drain)+1)
	defer lw.end()

	hi := lo
	for i := range flows {
		f := &flows[i]
		f.tr.view(f.s)
		lw.demand, lw.rowOf = f.demand, f.rowOf
		tailFrom := f.end - (f.s.Start - f.start)
		f.latest = f.end
		tail := f.end
		for e := f.start; e <= f.latest; e++ {
			status, at, arrive := f.tr.trace(e, lw)
			if e <= f.end {
				f.latest = max(f.latest, arrive)
				if e >= tailFrom {
					tail = max(tail, arrive)
				}
			}
			if status != Delivered {
				event(i, e, status, at, arrive)
			}
		}
		hi = max(hi, tail)
	}
	for i := range flows {
		f := &flows[i]
		if f.start == lo && f.latest >= hi {
			continue
		}
		lw.demand, lw.rowOf = f.demand, f.rowOf
		for e := lo; e < f.start; e++ {
			f.tr.trace(e, lw)
		}
		for e := f.latest + 1; e <= hi; e++ {
			f.tr.trace(e, lw)
		}
	}

	for _, key := range lw.touched {
		load := lw.m[key]
		if lw.dense {
			load = lw.val[key]
		}
		if l := links[key%lw.rows]; load > l.Cap {
			over(l, lo+Tick(key/lw.rows), load)
		}
	}
}
