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

	loads := make(map[LinkInstance]graph.Capacity)
	for _, u := range updates {
		start := u.S.Start - Tick(u.In.Init.Delay(g))
		end := u.S.End()
		// Joint validation must cover the whole horizon of all flows: a
		// steady flow keeps loading its links while another migrates, so
		// emissions continue to the global latest arrival.
		latest := end
		var traces []Trace
		for e := start; e <= end; e++ {
			tr := TraceEmission(u.In, u.S, e)
			traces = append(traces, tr)
			if a := tr.Arrive(); a > latest {
				latest = a
			}
		}
		for e := end + 1; e <= latest; e++ {
			traces = append(traces, TraceEmission(u.In, u.S, e))
		}
		for _, tr := range traces {
			for _, h := range tr.Hops {
				loads[LinkInstance{From: h.From, To: h.To, Depart: h.Depart}] += u.In.Demand
			}
			switch tr.Status {
			case Looped, Blackholed:
				r.Events = append(r.Events, JointEvent{Kind: tr.Status, Flow: u.Name, At: tr.At, Tick: tr.Arrive()})
			}
		}
	}

	// The per-flow windows may differ; congestion is only meaningful on
	// ticks covered by every involved flow's emission stream. Steady-state
	// coverage: each flow emits from its own window start; before that its
	// units are not modeled. To keep the check sound, extend each flow's
	// window to the global one.
	globalLo, globalHi := windowBounds(updates)
	for _, u := range updates {
		lo := u.S.Start - Tick(u.In.Init.Delay(g))
		for e := globalLo; e < lo; e++ {
			tr := TraceEmission(u.In, u.S, e)
			for _, h := range tr.Hops {
				loads[LinkInstance{From: h.From, To: h.To, Depart: h.Depart}] += u.In.Demand
			}
		}
		end := u.S.End()
		latest := latestArrivalOf(u, end)
		for e := latest + 1; e <= globalHi; e++ {
			tr := TraceEmission(u.In, u.S, e)
			for _, h := range tr.Hops {
				loads[LinkInstance{From: h.From, To: h.To, Depart: h.Depart}] += u.In.Demand
			}
		}
	}

	for li, load := range loads {
		l, ok := g.Link(li.From, li.To)
		if !ok {
			continue
		}
		if load > l.Cap {
			r.Congestion = append(r.Congestion, JointCongestion{Link: li, Load: load, Cap: l.Cap})
		}
	}
	// loads is a map: without the (From, To) tie-break, links congested at
	// the same tick would come out in iteration order.
	sort.Slice(r.Congestion, func(i, j int) bool { return r.Congestion[i].Link.before(r.Congestion[j].Link) })
	sort.Slice(r.Events, func(i, j int) bool { return r.Events[i].Tick < r.Events[j].Tick })
	return r, nil
}

func windowBounds(updates []FlowUpdate) (Tick, Tick) {
	g := updates[0].In.G
	lo := updates[0].S.Start - Tick(updates[0].In.Init.Delay(g))
	hi := updates[0].S.End()
	for _, u := range updates {
		if l := u.S.Start - Tick(u.In.Init.Delay(g)); l < lo {
			lo = l
		}
		if h := latestArrivalOf(u, u.S.End()); h > hi {
			hi = h
		}
	}
	return lo, hi
}

func latestArrivalOf(u FlowUpdate, end Tick) Tick {
	latest := end
	for e := end - Tick(u.In.Init.Delay(u.In.G)); e <= end; e++ {
		tr := TraceEmission(u.In, u.S, e)
		if a := tr.Arrive(); a > latest {
			latest = a
		}
	}
	return latest
}
