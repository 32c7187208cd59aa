package core

import (
	"sort"

	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/graph"
)

// SwitchSlack is the scheduling tolerance of one switch in a validated
// schedule: how many ticks its activation may slip before the schedule
// stops being congestion- and loop-free.
type SwitchSlack struct {
	// V is the switch.
	V graph.NodeID
	// Time is v's scheduled activation tick.
	Time dynflow.Tick
	// Slack is the largest delay d such that activating v at Time+d (all
	// other switches unchanged) still validates clean. It is capped at
	// the instance's scheduling horizon (autoMaxTicks); a switch that
	// reports the cap validates clean at every delay up to the horizon,
	// proven once further delay only repeats the schedule shifted in time
	// (see dynflow.Kernel.Slack) rather than walked tick by tick.
	Slack dynflow.Tick
	// Critical marks zero-slack switches: any slip at all breaks one of
	// the invariants, so these gate the correctness of the makespan.
	Critical bool
}

// ScheduleSlack computes the per-switch slack of a schedule against the
// dynamic-flow validator. It answers the operational question behind
// critical-path analysis — which switches must fire on time, and how much
// timing error the rest tolerate — and complements the event-based
// critical path the audit package derives from an execution trace.
//
// One kernel is built on the schedule (dynflow.Kernel): its trace of the
// window gives the clean/violating verdict, and each scheduled switch is
// then delayed tick by tick as a chain of kernel moves: only the units the
// extra tick of delay diverts at that switch are re-traced, and only the
// link instances whose load rose are compared against capacity. The walk
// stops at the first violation, or once the rest of the horizon is proven
// clean: past every other activation and the longest trace, one more tick
// of delay only shifts the schedule's traces. The values are exactly those
// of re-validating the whole schedule per switch and delay, which is what
// the tests do as the oracle, at O(switches × (T_o − τ(v) + 2L) × path)
// (T_o the last other activation, L the longest trace) instead of
// O(switches × horizon × window × path).
//
// Switches are returned in ascending NodeID order. The result is only
// meaningful for schedules that validate clean; for a violating schedule
// every switch reports zero slack.
func ScheduleSlack(in *dynflow.Instance, s *dynflow.Schedule) []SwitchSlack {
	ids := make([]graph.NodeID, 0, len(s.Times))
	for v := range s.Times {
		ids = append(ids, v)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]SwitchSlack, 0, len(ids))
	k := dynflow.NewKernel(in, s)
	defer k.Release()
	if ok, _ := k.Check(); !ok {
		for _, v := range ids {
			out = append(out, SwitchSlack{V: v, Time: s.Times[v], Critical: true})
		}
		return out
	}
	horizon := autoMaxTicks(in)
	for _, v := range ids {
		slack := k.Slack(v, s.Times[v], horizon)
		out = append(out, SwitchSlack{V: v, Time: s.Times[v], Slack: slack, Critical: slack == 0})
	}
	return out
}
