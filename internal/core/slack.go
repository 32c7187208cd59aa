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
	// the instance's scheduling horizon (autoMaxTicks); a switch whose
	// delay never broke the schedule within the horizon reports the cap.
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
// The schedule is validated once. Each scheduled switch is then delayed
// tick by tick up to the horizon, and each step is checked incrementally
// (dynflow.DelaySlack): only the units the extra tick of delay diverts at
// that switch are re-traced, and only the link instances whose load rose
// are compared against capacity. The values are exactly those of
// re-validating the whole schedule per switch and delay, which is what
// the tests do as the oracle, at O(switches × horizon × path) instead of
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
	if !dynflow.Validate(in, s).OK() {
		for _, v := range ids {
			out = append(out, SwitchSlack{V: v, Time: s.Times[v], Critical: true})
		}
		return out
	}
	for i, slack := range dynflow.DelaySlack(in, s, ids, autoMaxTicks(in)) {
		out = append(out, SwitchSlack{V: ids[i], Time: s.Times[ids[i]], Slack: slack, Critical: slack == 0})
	}
	return out
}
