package scheme

import (
	"errors"

	"github.com/chronus-sdn/chronus/internal/baseline"
	"github.com/chronus-sdn/chronus/internal/core"
	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/graph"
	"github.com/chronus-sdn/chronus/internal/opt"
)

// The built-in cast: both greedy acceptance modes, the exact search, the
// order-replacement and one-shot baselines, the tree decision procedure,
// and the drain-paced sequential baseline. Each is one value registered in
// one place; everything else in the repository discovers them by name.
func init() {
	Register(greedyScheme{name: "chronus", mode: core.ModeExact})
	Register(greedyScheme{name: "chronus-fast", mode: core.ModeFast})
	Register(optScheme{})
	Register(orScheme{})
	Register(oneshotScheme{})
	Register(treeScheme{})
	Register(sequentialScheme{})
}

// greedyScheme adapts core.Greedy (Algorithm 2) in either acceptance mode.
type greedyScheme struct {
	name string
	mode core.Mode
}

func (g greedyScheme) Name() string { return g.name }

func (g greedyScheme) Solve(in *dynflow.Instance, o Options) (*Result, error) {
	res, err := core.Greedy(in, core.Options{
		Start:      o.Start,
		Mode:       g.mode,
		MaxTicks:   o.Budget.MaxTicks,
		BestEffort: o.BestEffort,
		Obs:        o.Obs,
		Trace:      o.Trace,
	})
	if err != nil {
		return nil, err
	}
	diag := Diagnostics{
		"ticks_used":        int64(res.TicksUsed),
		"validations":       int64(res.Validations),
		"dependency_cycles": int64(res.DependencyCycles),
	}
	// The greedy engines honor only MaxTicks; flag the budget knobs the
	// caller set that had no effect, so a timeout on chronus/chronus-fast
	// is visibly ignored instead of silently dropped.
	if o.Budget.Timeout > 0 {
		diag["budget_knob_ignored:timeout"] = 1
	}
	if o.Budget.MaxNodes > 0 {
		diag["budget_knob_ignored:max_nodes"] = 1
	}
	return &Result{
		Schedule:    res.Schedule,
		Report:      res.Report,
		BestEffort:  res.BestEffort,
		Diagnostics: diag,
	}, nil
}

// optScheme adapts the branch-and-bound exact search (the paper's OPT).
type optScheme struct{}

func (optScheme) Name() string { return "opt" }

func (optScheme) Solve(in *dynflow.Instance, o Options) (*Result, error) {
	res, err := opt.Exact(in, opt.Options{
		Start:    o.Start,
		MaxNodes: o.Budget.MaxNodes,
		Timeout:  o.Budget.Timeout,
	})
	if err != nil {
		return nil, err
	}
	diag := Diagnostics{"nodes": int64(res.Nodes)}
	switch res.Status {
	case opt.StatusInfeasible:
		return nil, infeasibleError{errors.New("opt: no schedule within the makespan cap")}
	case opt.StatusOptimal:
		return &Result{Schedule: res.Schedule, Exact: true, Diagnostics: diag}, nil
	default: // StatusBudget: the incumbent (possibly none) with the budget flag.
		diag["budget_exhausted"] = 1
		return &Result{Schedule: res.Schedule, Diagnostics: diag}, nil
	}
}

// orScheme adapts order replacement. Without a budget it builds rounds
// greedily; with Budget.MaxNodes or Budget.Timeout set it runs the
// round-minimizing search. Rounds are time-oblivious by design, so the
// result carries Rounds and no Schedule — replay them through
// baseline.ORSchedule to study their timed transients.
type orScheme struct{}

func (orScheme) Name() string { return "or" }

func (orScheme) Solve(in *dynflow.Instance, o Options) (*Result, error) {
	if o.Budget.MaxNodes > 0 || o.Budget.Timeout > 0 {
		res, err := baseline.OROptimal(in, baseline.OROptions{MaxNodes: o.Budget.MaxNodes, Timeout: o.Budget.Timeout})
		if err != nil {
			return nil, orErr(err)
		}
		diag := Diagnostics{"nodes": int64(res.Nodes)}
		if !res.Exact {
			diag["budget_exhausted"] = 1
		}
		return &Result{Rounds: res.Rounds, Exact: res.Exact, Diagnostics: diag}, nil
	}
	rounds, err := baseline.ORGreedy(in)
	if err != nil {
		return nil, orErr(err)
	}
	return &Result{Rounds: rounds}, nil
}

// orErr marks a stuck round construction as infeasibility (for OR's notion
// of a solution) while keeping the baseline error visible to errors.Is.
func orErr(err error) error {
	if errors.Is(err, baseline.ErrNoOrder) {
		return infeasibleError{err}
	}
	return err
}

// oneshotScheme flips every switch of the update set at once — the naive
// baseline whose in-flight transients the validator and the runtime
// auditor must both flag. The result is always BestEffort: the schedule is
// complete but knowingly ignores transient consistency, and its Report
// carries the damage.
type oneshotScheme struct{}

func (oneshotScheme) Name() string { return "oneshot" }

func (oneshotScheme) Solve(in *dynflow.Instance, o Options) (*Result, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	s := dynflow.NewSchedule(o.Start)
	for _, v := range in.UpdateSet() {
		s.Set(v, o.Start)
	}
	return &Result{Schedule: s, Report: dynflow.Validate(in, s), BestEffort: true}, nil
}

// treeScheme adapts the polynomial feasibility check (Algorithm 1). It is
// a decision procedure: the result carries Feasible plus, when feasible,
// the witness crossing order as singleton rounds. Instances with
// non-uniform link delays are outside the algorithm's preconditions and
// return ErrUnsupported.
type treeScheme struct{}

func (treeScheme) Name() string { return "tree" }

func (treeScheme) Solve(in *dynflow.Instance, o Options) (*Result, error) {
	ok, order, err := core.TreeFeasible(in)
	if err != nil {
		if errors.Is(err, core.ErrNonUniformDelays) {
			return nil, unsupportedError{err}
		}
		return nil, err
	}
	res := &Result{Feasible: &ok, Exact: true}
	if ok {
		res.Rounds = make([][]graph.NodeID, len(order))
		for i, v := range order {
			res.Rounds[i] = []graph.NodeID{v}
		}
	}
	return res, nil
}

// sequentialScheme adapts the drain-paced sequential baseline: one switch
// per drain interval, in dependency order. It exists partly on its own
// merits (the acceptance-mode ablation compares against it) and partly as
// the living example that adding a scheme to the whole stack — CLI, REST,
// experiments, batch — is this one registration.
type sequentialScheme struct{}

func (sequentialScheme) Name() string { return "sequential" }

func (sequentialScheme) Solve(in *dynflow.Instance, o Options) (*Result, error) {
	s, err := core.SequentialDrain(in, o.Start)
	if err != nil {
		return nil, err
	}
	return &Result{Schedule: s}, nil
}
