package controller

import (
	"github.com/chronus-sdn/chronus/internal/core"
	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/emu"
	"github.com/chronus-sdn/chronus/internal/health"
	"github.com/chronus-sdn/chronus/internal/timesync"
)

// The one run recipe every executed update follows: Boot the testbed,
// arm the health engine with TimedPlan (after folding the trace recorded
// so far into it), execute the schedule shifted Headroom ticks past now,
// and settle by advancing past the last apply plus a drain of both paths.

// Headroom is the control headroom in ticks: how far past "now" a timed
// schedule's first activation is placed so that every timed FlowMod
// reaches its switch before the switch's clock gets there.
const Headroom = 50

// Boot builds the emulated testbed for in and brings one flow up on it,
// in this order: the harness, the network's telemetry sinks (opts.Obs
// and opts.Trace, either may be nil), the controller, one in-process
// agent per switch under clocks (nil for perfect clocks), and the flow
// called name provisioned on in.Init at in.Demand.
func Boot(in *dynflow.Instance, name string, clocks *timesync.Ensemble, opts Options) (*Harness, *Controller, FlowSpec, error) {
	h := NewHarness(in.G)
	h.Net.SetObs(opts.Obs, opts.Trace)
	c := New(h, opts)
	c.AttachAll(clocks)
	f := FlowSpec{Name: name, Path: in.Init, Rate: emu.Rate(in.Demand)}
	return h, c, f, c.Provision(f)
}

// TimedPlan is the health plan of a timed schedule s armed at tick now
// and executed as s.Shifted(start): one promise per switch from s's
// ScheduleSlack, its apply tick shifted the way the executed schedule
// is. The slack is computed on s itself, because shifting every
// activation by the same offset changes no relative timing.
func TimedPlan(in *dynflow.Instance, s *dynflow.Schedule, start dynflow.Tick, now int64, valid bool) health.Plan {
	plan := health.Plan{Kind: "timed", Valid: valid, StartTick: now}
	for _, sl := range core.ScheduleSlack(in, s) {
		plan.Switches = append(plan.Switches, health.PlanSwitch{
			Switch:     in.G.Name(sl.V),
			SlackTicks: int64(sl.Slack),
			ApplyTick:  int64(start + (sl.Time - s.Start)),
			Critical:   sl.Critical,
		})
	}
	return plan
}
