package expt

import (
	"fmt"
	"math/rand"

	"github.com/chronus-sdn/chronus/internal/baseline"
	"github.com/chronus-sdn/chronus/internal/controller"
	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/scheme"
	"github.com/chronus-sdn/chronus/internal/topo"
)

// instCtx is the shared per-instance context of the quality and timing
// experiments: the random instance plus the steady-state quantities every
// scheme at that (size, run, instance) point reuses — the update set is
// computed once here instead of once per scheme.
type instCtx struct {
	in *dynflow.Instance
	// updates is |update set|: the switches whose rules change.
	updates int
}

// newInstCtx draws one random instance from rng and precomputes its shared
// steady-state context (this also warms the instance's lazy caches, so the
// per-scheme solves that follow race on nothing).
func newInstCtx(rng *rand.Rand, p topo.RandomParams) *instCtx {
	in := topo.RandomInstance(rng, p)
	return &instCtx{
		in:      in,
		updates: len(in.UpdateSet()),
	}
}

// schemeRun is one entry of an experiment's scheme cast: a registry scheme
// plus the options this experiment hands it. Casts are resolved once per
// task, outside the per-instance loops.
type schemeRun struct {
	name string
	s    scheme.Scheme
	opts scheme.Options
	// sampled restricts evaluation to the first cfg.OPTRuns runs (the
	// budgeted exact searches are too slow for the full population).
	sampled bool
}

// resolveCast looks every cast entry up in the registry.
func resolveCast(cast []schemeRun) ([]schemeRun, error) {
	for i := range cast {
		s, err := scheme.Lookup(cast[i].name)
		if err != nil {
			return nil, err
		}
		cast[i].s = s
	}
	return cast, nil
}

// executor drives one update strategy onto an emulated testbed: plan (via
// a registry scheme, where planning applies) and execute. The emulation
// experiments iterate executors the way the analytic ones iterate scheme
// casts.
type executor func(in *dynflow.Instance, c *controller.Controller, h *controller.Harness, f controller.FlowSpec) error

// timedExecutor plans with the named registry scheme and executes the
// schedule time-triggered (timed FlowMods), shifted to activate at start.
func timedExecutor(name string, start dynflow.Tick) executor {
	return func(in *dynflow.Instance, c *controller.Controller, h *controller.Harness, f controller.FlowSpec) error {
		res, err := scheme.Solve(name, in, scheme.Options{})
		if err != nil {
			return err
		}
		if res.Schedule == nil {
			return fmt.Errorf("scheme %q produced no timed schedule", name)
		}
		return c.ExecuteTimed(in, res.Schedule.Shifted(start), f)
	}
}

// pacedExecutor plans with the named registry scheme but drives the
// schedule with barrier pacing — one controller round trip per time unit —
// instead of timed FlowMods.
func pacedExecutor(name string) executor {
	return func(in *dynflow.Instance, c *controller.Controller, h *controller.Harness, f controller.FlowSpec) error {
		res, err := scheme.Solve(name, in, scheme.Options{})
		if err != nil {
			return err
		}
		if res.Schedule == nil {
			return fmt.Errorf("scheme %q produced no timed schedule", name)
		}
		return c.ExecuteBarrierPaced(in, res.Schedule.Shifted(0), f, 1)
	}
}

// roundExecutor plans rounds with the named registry scheme and paces
// them with barriers, width ticks per round.
func roundExecutor(name string, width dynflow.Tick) executor {
	return func(in *dynflow.Instance, c *controller.Controller, h *controller.Harness, f controller.FlowSpec) error {
		res, err := scheme.Solve(name, in, scheme.Options{})
		if err != nil {
			return err
		}
		if res.Rounds == nil {
			return fmt.Errorf("scheme %q produced no rounds", name)
		}
		s := baseline.ORSchedule(res.Rounds, baseline.ORScheduleOptions{Start: 0, RoundWidth: width})
		return c.ExecuteBarrierPaced(in, s, f, 1)
	}
}

// twoPhaseExecutor is the two-phase-commit execution strategy. It has no
// planning scheme: per-packet consistency comes from version stamping, at
// the rule-space cost Fig. 9 quantifies.
func twoPhaseExecutor() executor {
	return func(in *dynflow.Instance, c *controller.Controller, h *controller.Harness, f controller.FlowSpec) error {
		return c.ExecuteTwoPhase(in, f, 1)
	}
}
