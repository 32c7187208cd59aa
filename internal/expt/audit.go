package expt

import (
	"github.com/chronus-sdn/chronus/internal/audit"
	"github.com/chronus-sdn/chronus/internal/controller"
	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/emu"
	"github.com/chronus-sdn/chronus/internal/obs"
	"github.com/chronus-sdn/chronus/internal/sim"
)

// auditHeadroom is how many ticks past "now" a schedule is shifted
// before execution, leaving room for the seeded control latency of the
// timed FlowMods (mirrors cmd/mutp's trace headroom).
const auditHeadroom = 50

// auditedExecution executes schedule s for instance in on a fresh
// emulated testbed with a deterministic tracer attached, and returns the
// runtime auditor's report over the recorded events. The testbed's only
// randomness is the controller's seeded latency model, so for a fixed
// seed the report is identical run to run — the audit columns of Fig. 7
// and of the soak stay byte-deterministic at every worker count.
func auditedExecution(in *dynflow.Instance, s *dynflow.Schedule, seed int64) (*audit.Report, error) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(obs.TracerOptions{})
	tb := controller.NewHarness(in.G)
	tb.Net.SetObs(reg, tracer)
	ctl := controller.New(tb, controller.Options{Seed: seed, Obs: reg, Trace: tracer})
	ctl.AttachAll(nil)

	flow := controller.FlowSpec{Name: "f", Tag: 0, Path: in.Init, Rate: emu.Rate(in.Demand)}
	if err := ctl.Provision(flow); err != nil {
		return nil, err
	}
	tb.AdvanceBy(auditHeadroom)

	start := dynflow.Tick(tb.Now()) + auditHeadroom
	shifted := s.Shifted(start)
	if err := ctl.ExecuteTimed(in, shifted, flow); err != nil {
		return nil, err
	}
	drain := sim.Time(in.Init.Delay(in.G)+in.Fin.Delay(in.G)) + 10
	tb.AdvanceTo(sim.Time(shifted.End()) + drain)

	a := audit.New()
	a.Feed(tracer.Events(0)...)
	return a.Report(), nil
}
