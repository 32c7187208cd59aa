package dynflow

import (
	"fmt"
	"sort"

	"github.com/chronus-sdn/chronus/internal/graph"
)

// FlowUpdate pairs one flow's update instance with its schedule, for joint
// validation of several concurrent flows on one topology.
type FlowUpdate struct {
	// Name labels the flow in events.
	Name string
	In   *Instance
	S    *Schedule
}

// JointEvent is a violation found by ValidateJoint, attributed to a flow
// (loops, blackholes) or to the shared capacity (congestion, which has no
// single owner).
type JointEvent struct {
	Kind TraceStatus // Looped or Blackholed; congestion uses JointCongestion
	Flow string
	At   graph.NodeID
	Tick Tick
}

// JointCongestion is an over-capacity time-extended link instance under the
// combined load of all flows.
type JointCongestion struct {
	Link LinkInstance
	Load graph.Capacity
	Cap  graph.Capacity
}

// JointReport is the outcome of ValidateJoint.
type JointReport struct {
	Congestion []JointCongestion
	Events     []JointEvent
}

// OK reports whether the joint update is violation-free.
func (r *JointReport) OK() bool { return len(r.Congestion) == 0 && len(r.Events) == 0 }

// Summary renders a one-line result.
func (r *JointReport) Summary() string {
	if r.OK() {
		return "ok"
	}
	return fmt.Sprintf("violations: %d congested link instances, %d per-flow events", len(r.Congestion), len(r.Events))
}

// ValidateJoint checks several flows' updates against the shared topology:
// each flow's emissions are traced through its own time-varying
// configuration (Definition 2's loop-freedom per flow), and the loads of
// all flows accumulate per time-extended link instance against the link
// capacity (Definition 3 over the sum of flows). All instances must share
// one graph.
//
// A flow only loads its own footprint (see tracer), so the traces run on
// the flows' tracers and the loads live in one dense array of (footprint
// link of any flow) × (tick of the joint window).
func ValidateJoint(updates []FlowUpdate) (*JointReport, error) {
	r := &JointReport{}
	if len(updates) == 0 {
		return r, nil
	}
	g := updates[0].In.G
	for _, u := range updates {
		if u.In.G != g {
			return nil, fmt.Errorf("dynflow: flow %q uses a different graph", u.Name)
		}
	}

	// Rows of the load array: the union of the flows' footprint links,
	// with each flow's link ordinals mapped onto them.
	type jointFlow struct {
		tr    *tracer
		rowOf []int32
		// The flow's own window opens at start and its schedule ends at
		// end; tail is the latest arrival among the emissions of the last
		// φ(p_init) ticks up to end, the ones still in flight then.
		start, end, tail Tick
	}
	var (
		flows = make([]jointFlow, len(updates))
		links []graph.Link
		rows  = make(map[[2]graph.NodeID]int32)
		drain Tick
		hops  []traceHop
	)
	for i, u := range updates {
		tr := tracerFor(u.In)
		delay := Tick(u.In.Init.Delay(g))
		f := jointFlow{tr: tr, rowOf: make([]int32, len(tr.links)), start: u.S.Start - delay, end: u.S.End()}
		for ord, l := range tr.links {
			row, ok := rows[[2]graph.NodeID{l.From, l.To}]
			if !ok {
				row = int32(len(links))
				rows[[2]graph.NodeID{l.From, l.To}] = row
				links = append(links, l)
			}
			f.rowOf[ord] = row
		}
		times := tr.view(&tr.times, u.S)
		f.tail = f.end
		for e := f.end - delay; e <= f.end; e++ {
			hops = hops[:0]
			_, _, arrive := tr.trace(times, e, nil, &hops)
			f.tail = max(f.tail, arrive)
		}
		drain = max(drain, tr.maxTrace)
		flows[i] = f
	}

	// Joint validation must cover the whole horizon of all flows: a steady
	// flow keeps loading its links while another migrates, and before a
	// flow's own window opens its units are not modeled. To keep the check
	// sound, every flow's window is extended to the global one.
	globalLo, globalHi := flows[0].start, flows[0].tail
	for _, f := range flows {
		globalLo, globalHi = min(globalLo, f.start), max(globalHi, f.tail)
	}
	// loads[(tick−globalLo)×len(links) + row], sized for the units emitted
	// up to globalHi to drain; a flow whose own window runs longer grows it.
	loads := make([]graph.Capacity, len(links)*int(globalHi-globalLo+drain+1))
	for i, u := range updates {
		f := flows[i]
		times := f.tr.view(&f.tr.times, u.S)
		emit := func(e Tick, report bool) Tick {
			hops = hops[:0]
			status, at, arrive := f.tr.trace(times, e, nil, &hops)
			for _, h := range hops {
				key := int(h.tick-globalLo)*len(links) + int(f.rowOf[h.ord])
				if key >= len(loads) {
					loads = append(loads, make([]graph.Capacity, key+1-len(loads))...)
				}
				loads[key] += u.In.Demand
			}
			if report && status != Delivered {
				r.Events = append(r.Events, JointEvent{Kind: status, Flow: u.Name, At: at, Tick: arrive})
			}
			return arrive
		}
		latest := f.end
		for e := f.start; e <= f.end; e++ {
			latest = max(latest, emit(e, true))
		}
		for e := f.end + 1; e <= latest; e++ {
			emit(e, true)
		}
		for e := globalLo; e < f.start; e++ {
			emit(e, false)
		}
		for e := f.tail + 1; e <= globalHi; e++ {
			emit(e, false)
		}
	}

	for key, load := range loads {
		if l := links[key%len(links)]; load > l.Cap {
			li := LinkInstance{From: l.From, To: l.To, Depart: globalLo + Tick(key/len(links))}
			r.Congestion = append(r.Congestion, JointCongestion{Link: li, Load: load, Cap: l.Cap})
		}
	}
	sort.Slice(r.Congestion, func(i, j int) bool { return r.Congestion[i].Link.before(r.Congestion[j].Link) })
	sort.Slice(r.Events, func(i, j int) bool { return r.Events[i].Tick < r.Events[j].Tick })
	return r, nil
}
