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
// A flow only loads its own footprint (see tracer), so the load rows are
// the union of the flows' footprint links, and the emissions run through
// Validate's loop (see validateFlows) with each flow's link ordinals
// mapped onto them.
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

	x := getScratch()
	defer putScratch(x)
	var (
		trs   = x.tracers(len(updates))
		flows = make([]flowWindow, len(updates))
		links []graph.Link
		rows  = make(map[[2]graph.NodeID]int32)
	)
	for i, u := range updates {
		tr := &trs[i]
		tr.compile(u.In)
		f := flowWindow{tr: tr, s: u.S, rowOf: make([]int32, len(tr.links)), demand: u.In.Demand,
			start: u.S.Start - Tick(u.In.Init.Delay(g)), end: u.S.End()}
		for ord, l := range tr.links {
			row, ok := rows[[2]graph.NodeID{l.From, l.To}]
			if !ok {
				row = int32(len(links))
				rows[[2]graph.NodeID{l.From, l.To}] = row
				links = append(links, l)
			}
			f.rowOf[ord] = row
		}
		flows[i] = f
	}

	x.validateFlows(flows, links, func(i int, _ Tick, status TraceStatus, at graph.NodeID, arrive Tick) {
		r.Events = append(r.Events, JointEvent{Kind: status, Flow: updates[i].Name, At: at, Tick: arrive})
	}, func(l graph.Link, depart Tick, load graph.Capacity) {
		li := LinkInstance{From: l.From, To: l.To, Depart: depart}
		r.Congestion = append(r.Congestion, JointCongestion{Link: li, Load: load, Cap: l.Cap})
	})
	sort.Slice(r.Congestion, func(i, j int) bool { return r.Congestion[i].Link.before(r.Congestion[j].Link) })
	sort.Slice(r.Events, func(i, j int) bool { return r.Events[i].Tick < r.Events[j].Tick })
	return r, nil
}
