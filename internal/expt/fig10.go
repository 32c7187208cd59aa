package expt

import (
	"errors"
	"time"

	"github.com/chronus-sdn/chronus/internal/metrics"
	"github.com/chronus-sdn/chronus/internal/scheme"
)

// Fig10Point is the running-time comparison at one switch count.
type Fig10Point struct {
	N int
	// Seconds per scheme, averaged over BigInstances. A solve that
	// gives up is timed too, up to the give-up.
	Chronus, OR, OPT float64
	// ChronusInfeasible counts the instances on which chronus-fast gave
	// up (scheme.ErrInfeasible) instead of returning a schedule.
	ChronusInfeasible int
	// ORBudget / OPTBudget report how many instances exhausted the search
	// budget (the paper's "does not complete within the time limit").
	ORBudget, OPTBudget int
}

// Fig10Result reproduces Fig. 10: scheduling time versus switch count at
// thousands of switches. Chronus runs its fast greedy to completion; OR and
// OPT run their branch and bound under a node budget, so their reported
// time is a lower bound whenever the budget flag is set — exactly the
// paper's "exceeds the limit" semantics.
type Fig10Result struct {
	Points []Fig10Point
}

// fig10Cast is the running-time scheme set: the fast greedy unbudgeted,
// the two exact searches under the configured node and time budget.
func fig10Cast(cfg Config) ([]schemeRun, error) {
	budget := scheme.Budget{MaxNodes: cfg.BigNodes, Timeout: time.Duration(cfg.BigTimeoutSec) * time.Second}
	return resolveCast([]schemeRun{
		{name: "chronus-fast"},
		{name: "or", opts: scheme.Options{Budget: budget}},
		{name: "opt", opts: scheme.Options{Budget: budget}},
	})
}

// fig10Sample is one (size, instance) timing task's outcome, per scheme.
type fig10Sample struct {
	seconds    map[string]float64
	budget     map[string]int
	infeasible map[string]int
}

// fig10Instance times the cast on one random instance; the RNG key is per
// (size, instance), so the instance population is identical at every
// worker count (the measured seconds, like any wall-clock quantity, are
// not — run with Procs = 1 for uncontended timings).
func fig10Instance(cfg Config, n, k int) (fig10Sample, error) {
	s := fig10Sample{seconds: map[string]float64{}, budget: map[string]int{}, infeasible: map[string]int{}}
	cast, err := fig10Cast(cfg)
	if err != nil {
		return s, err
	}
	rng := rngFor(cfg, "fig10", int64(n)*100+int64(k))
	ctx := newInstCtx(rng, bigParams(n))

	for _, r := range cast {
		start := time.Now()
		res, err := r.s.Solve(ctx.in, r.opts)
		s.seconds[r.name] = time.Since(start).Seconds()
		if err != nil {
			if errors.Is(err, scheme.ErrInfeasible) {
				s.infeasible[r.name]++
				continue
			}
			return s, err
		}
		if res.Diagnostics["budget_exhausted"] > 0 {
			s.budget[r.name]++
		}
	}
	return s, nil
}

// Fig10RunningTime measures wall-clock scheduling time per scheme.
func Fig10RunningTime(cfg Config) (*Fig10Result, error) {
	res := &Fig10Result{}
	samples, err := fanout(cfg, len(cfg.BigSizes)*cfg.BigInstances, func(i int) (fig10Sample, error) {
		return fig10Instance(cfg, cfg.BigSizes[i/cfg.BigInstances], i%cfg.BigInstances)
	})
	if err != nil {
		return nil, err
	}
	for si, n := range cfg.BigSizes {
		point := Fig10Point{N: n}
		for k := 0; k < cfg.BigInstances; k++ {
			s := samples[si*cfg.BigInstances+k]
			point.Chronus += s.seconds["chronus-fast"]
			point.ChronusInfeasible += s.infeasible["chronus-fast"]
			point.OR += s.seconds["or"]
			point.OPT += s.seconds["opt"]
			point.ORBudget += s.budget["or"]
			point.OPTBudget += s.budget["opt"]
		}
		inv := 1 / float64(cfg.BigInstances)
		point.Chronus *= inv
		point.OR *= inv
		point.OPT *= inv
		res.Points = append(res.Points, point)
	}
	return res, nil
}

// Table renders Fig. 10.
func (r *Fig10Result) Table() *metrics.Table {
	t := &metrics.Table{Header: []string{"switches", "chronus_s", "chronus_infeasible", "or_s", "or_budget_hit", "opt_s", "opt_budget_hit"}}
	for _, p := range r.Points {
		t.AddRowf(p.N, p.Chronus, p.ChronusInfeasible, p.OR, p.ORBudget, p.OPT, p.OPTBudget)
	}
	return t
}
