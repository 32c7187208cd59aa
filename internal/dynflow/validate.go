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

// Arrive returns the tick at which the trace terminated (delivery tick, or
// the arrival tick at the violating switch).
func (tr *Trace) Arrive() Tick {
	if len(tr.Hops) == 0 {
		return tr.Emit
	}
	return tr.Hops[len(tr.Hops)-1].Arrive
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
	// Loads is the accumulated demand per time-extended link instance over
	// the validation window. Validate leaves it nil (it accounts loads in
	// reusable scratch and reports only violations); producers that build
	// reports by hand, like the two-phase baseline, may fill it in.
	Loads map[LinkInstance]graph.Capacity
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

// CongestedPhysicalLinks returns the number of distinct physical links that
// were over capacity at any tick.
func (r *Report) CongestedPhysicalLinks() int {
	seen := make(map[[2]graph.NodeID]struct{})
	for _, ev := range r.Congestion {
		seen[[2]graph.NodeID{ev.Link.From, ev.Link.To}] = struct{}{}
	}
	return len(seen)
}

// PeakOverload returns the maximum load−capacity excess observed, in demand
// units; zero when congestion-free.
func (r *Report) PeakOverload() graph.Capacity {
	var peak graph.Capacity
	for _, ev := range r.Congestion {
		if over := ev.Load - ev.Cap; over > peak {
			peak = over
		}
	}
	return peak
}

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
	tr := tracerFor(in)
	start := s.Start - Tick(in.Init.Delay(in.G))
	end := s.End()
	r := &Report{WindowStart: start}
	var vm *validatorMetrics
	if in.Obs != nil {
		vm = tr.metrics(in.Obs)
		vm.runs.Inc()
	}

	// Departure ticks stay within end + 2 × (max trace duration): the last
	// traced emission is at latestArrival <= end + maxTrace, and its own
	// trace lasts at most maxTrace more.
	tr.beginLoads(int64(end-start) + 2*int64(tr.maxTrace) + 1)

	times := tr.view(s)
	record := func(e Tick) Tick {
		status, at, arrive := tr.trace(times, e, start, nil)
		switch status {
		case Looped:
			r.Loops = append(r.Loops, LoopEvent{Emit: e, At: at, Tick: arrive})
		case Blackholed:
			r.Blackholes = append(r.Blackholes, BlackholeEvent{Emit: e, At: at, Tick: arrive})
		}
		return arrive
	}
	latestArrival := end
	traced := int64(0)
	for e := start; e <= end; e++ {
		traced++
		if a := record(e); a > latestArrival {
			latestArrival = a
		}
	}
	// Pure-final emissions that can still overlap the in-flight tail.
	for e := end + 1; e <= latestArrival; e++ {
		traced++
		record(e)
	}
	r.WindowEnd = latestArrival
	r.LatestArrival = latestArrival
	if in.Obs != nil {
		vm.traces.Add(traced)
		vm.window.Observe(float64(latestArrival - start + 1))
		if tr.dense {
			vm.denseLoads.Inc()
		} else {
			vm.mapLoads.Inc()
		}
	}

	for _, key := range tr.touched {
		load := tr.loadAt(key)
		if l := tr.links[key/tr.span]; load > l.Cap {
			li := LinkInstance{From: l.From, To: l.To, Depart: Tick(key%tr.span) + start}
			r.Congestion = append(r.Congestion, CongestionEvent{Link: li, Load: load, Cap: l.Cap})
		}
	}
	sort.Slice(r.Congestion, func(i, j int) bool { return r.Congestion[i].Link.before(r.Congestion[j].Link) })
	sort.Slice(r.Loops, func(i, j int) bool { return r.Loops[i].Emit < r.Loops[j].Emit })
	sort.Slice(r.Blackholes, func(i, j int) bool { return r.Blackholes[i].Emit < r.Blackholes[j].Emit })
	return r
}

// ValidateImmediate is a convenience: validate the schedule that flips every
// switch in the update set at Start simultaneously (the "no coordination"
// straw man from the paper's Fig. 2(a)).
func ValidateImmediate(in *Instance, start Tick) *Report {
	s := NewSchedule(start)
	for _, v := range in.UpdateSet() {
		s.Set(v, start)
	}
	return Validate(in, s)
}
