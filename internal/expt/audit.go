package expt

import (
	"github.com/chronus-sdn/chronus/internal/audit"
	"github.com/chronus-sdn/chronus/internal/controller"
	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/obs"
	"github.com/chronus-sdn/chronus/internal/sim"
)

// auditedExecution executes schedule s for instance in on a fresh
// emulated testbed with a deterministic tracer attached, and returns the
// runtime auditor's report over the recorded events. The testbed's only
// randomness is the controller's seeded latency model, so for a fixed
// seed the report is identical run to run — the audit columns of Fig. 7
// and of the soak stay byte-deterministic at every worker count.
func auditedExecution(in *dynflow.Instance, s *dynflow.Schedule, seed int64) (*audit.Report, error) {
	tracer := obs.NewTracer(obs.TracerOptions{})
	tb, ctl, flow, err := controller.Boot(in, "f", nil,
		controller.Options{Seed: seed, Obs: obs.NewRegistry(), Trace: tracer})
	if err != nil {
		return nil, err
	}
	tb.AdvanceBy(controller.Headroom)

	shifted := s.Shifted(dynflow.Tick(tb.Now()) + controller.Headroom)
	if err := ctl.ExecuteTimed(in, shifted, flow); err != nil {
		return nil, err
	}
	drain := sim.Time(in.Init.Delay(in.G)+in.Fin.Delay(in.G)) + 10
	tb.AdvanceTo(sim.Time(shifted.End()) + drain)

	a := audit.New()
	a.Feed(tracer.Events(0)...)
	return a.Report(), nil
}
