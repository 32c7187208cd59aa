// Package batch schedules updates for several flows on one topology — the
// workload of traffic-engineering systems like SWAN and zUpdate that the
// paper positions itself against, composed from Chronus's single-flow
// scheduler.
//
// The composition is sequential: flows migrate one at a time, each against
// a residual topology whose capacities are reduced by the steady loads of
// all other flows (flows already migrated occupy their final paths, flows
// still waiting occupy their initial paths). Start times are spaced so one
// flow's in-flight transients have fully drained before the next flow
// begins. The combined plan is finally checked by the joint ground-truth
// validator, so the returned batch is violation-free under the summed load.
package batch

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/chronus-sdn/chronus/internal/core"
	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/graph"
	"github.com/chronus-sdn/chronus/internal/obs"
	"github.com/chronus-sdn/chronus/internal/scheme"
)

// Flow is one flow's update request.
type Flow struct {
	Name string
	// Demand of the flow.
	Demand graph.Capacity
	// Init and Fin are the flow's current and target paths; both must live
	// on the batch's shared graph.
	Init, Fin graph.Path
}

// Options configures Solve.
type Options struct {
	// Start is the first tick of the whole batch.
	Start dynflow.Tick
	// Scheme names the per-flow scheduler in the scheme registry (empty:
	// "chronus"). The named scheme must produce a timed schedule for
	// every flow (round-based and decision-only schemes cannot be
	// sequentially composed).
	Scheme string
	// Obs receives the per-flow solves' counters; nil disables them.
	Obs *obs.Registry
}

// lookupScheme resolves the per-flow scheduler and its registry name.
func (o Options) lookupScheme() (scheme.Scheme, string, error) {
	name := o.Scheme
	if name == "" {
		name = "chronus"
	}
	s, err := scheme.Lookup(name)
	if err != nil {
		return nil, "", fmt.Errorf("batch: %w", err)
	}
	return s, name, nil
}

// Plan is a scheduled batch.
type Plan struct {
	// Updates pairs each flow with its schedule, in execution order.
	Updates []dynflow.FlowUpdate
	// Report is the joint validation of the whole batch.
	Report *dynflow.JointReport
}

// Makespan returns the span from the batch start to the last scheduled
// update.
func (p *Plan) Makespan(start dynflow.Tick) dynflow.Tick {
	end := start
	for _, u := range p.Updates {
		if e := u.S.End(); e > end {
			end = e
		}
	}
	return end - start
}

// ErrInfeasible wraps core.ErrInfeasible with the failing flow's name.
var ErrInfeasible = core.ErrInfeasible

// Solve schedules the batch on graph g. The flows' initial configurations
// must be jointly feasible (every link carries at most its capacity under
// the sum of initial paths), and likewise the final configurations; Solve
// verifies both before scheduling.
func Solve(g *graph.Graph, flows []Flow, opts Options) (*Plan, error) {
	s, name, err := opts.lookupScheme()
	if err != nil {
		return nil, err
	}
	if len(flows) == 0 {
		return &Plan{Report: &dynflow.JointReport{}}, nil
	}
	if err := checkSteadyState(g, flows, false); err != nil {
		return nil, fmt.Errorf("batch: initial configuration: %w", err)
	}
	if err := checkSteadyState(g, flows, true); err != nil {
		return nil, fmt.Errorf("batch: final configuration: %w", err)
	}

	plan, _, err := compose(g, flows, opts, s, name)
	if err != nil {
		return nil, err
	}

	report, err := dynflow.ValidateJoint(plan.Updates)
	if err != nil {
		return nil, err
	}
	plan.Report = report
	if !report.OK() {
		return plan, fmt.Errorf("batch: joint validation failed for flow(s) %s: %s",
			strings.Join(violatingFlows(report, flows), ", "), report.Summary())
	}
	return plan, nil
}

// compose schedules flows in order, each on the residual topology of
// the others' steady loads, with start times spaced past the previous
// flow's drain. clean reports that every scheme returned a clean Report.
// Errors name the failing flow.
func compose(g *graph.Graph, flows []Flow, opts Options, s scheme.Scheme, name string) (plan *Plan, clean bool, err error) {
	plan, clean = &Plan{}, true
	start := opts.Start
	for i, f := range flows {
		residual, err := residualGraph(g, flows, i)
		if err != nil {
			return nil, false, err
		}
		in := &dynflow.Instance{G: residual, Demand: f.Demand, Init: f.Init, Fin: f.Fin, Obs: opts.Obs}
		if err := in.Validate(); err != nil {
			return nil, false, fmt.Errorf("batch: flow %q: %w", f.Name, err)
		}
		res, err := s.Solve(in, scheme.Options{Start: start, Obs: opts.Obs})
		if err != nil {
			return nil, false, fmt.Errorf("batch: flow %q: %w", f.Name, err)
		}
		if res.Schedule == nil {
			return nil, false, fmt.Errorf("batch: flow %q: scheme %q produced no timed schedule to compose", f.Name, name)
		}
		clean = clean && res.Report != nil && res.Report.OK()
		// Re-anchor the schedule on the shared graph's instance for joint
		// validation and for callers executing the plan.
		full := in
		if residual != g {
			full = &dynflow.Instance{G: g, Demand: f.Demand, Init: f.Init, Fin: f.Fin}
		}
		plan.Updates = append(plan.Updates, dynflow.FlowUpdate{Name: f.Name, In: full, S: res.Schedule})

		// Next flow starts after this one's transients have drained.
		drain := dynflow.Tick(f.Init.Delay(g) + f.Fin.Delay(g))
		start = res.Schedule.End() + drain + 1
	}
	return plan, clean, nil
}

// Refusal names one flow SolveEach could not admit and why. Reasons are
// deterministic prose: the same flows in the same order produce the
// same refusals byte for byte.
type Refusal struct {
	Flow   string `json:"flow"`
	Reason string `json:"reason"`
}

// SolveEach is Solve with per-flow admission: instead of failing the
// whole batch on the first inadmissible flow, each flow is tried in
// order and the ones that cannot be composed are refused individually
// with a reason (steady-state oversubscription, missing link, no safe
// schedule on the residual topology, a failed joint validation). Every
// admission re-composes and joint-validates the whole admitted set —
// an earlier flow's schedule can stop validating once a newcomer's
// initial-path load joins the residual accounting, and that refusal
// must land on the newcomer — so the returned plan is violation-free
// under the joint validator by construction.
func SolveEach(g *graph.Graph, flows []Flow, opts Options) (*Plan, []Refusal, error) {
	s, name, err := opts.lookupScheme()
	if err != nil {
		return nil, nil, err
	}
	current := &Plan{Report: &dynflow.JointReport{}}
	var admitted []Flow
	var refusals []Refusal
	refuse := func(f Flow, reason string) {
		refusals = append(refusals, Refusal{Flow: f.Name, Reason: reason})
	}
	for _, f := range flows {
		candidate := append(append([]Flow{}, admitted...), f)
		if err := checkSteadyState(g, candidate, false); err != nil {
			refuse(f, fmt.Sprintf("initial configuration: %v", err))
			continue
		}
		if err := checkSteadyState(g, candidate, true); err != nil {
			refuse(f, fmt.Sprintf("final configuration: %v", err))
			continue
		}
		p, clean, err := compose(g, candidate, opts, s, name)
		if err != nil {
			refuse(f, err.Error())
			continue
		}
		// A lone flow's joint check is the validation its scheme just ran
		// clean on the same graph (no other flow leaves a residual).
		report := &dynflow.JointReport{}
		if len(candidate) > 1 || !clean {
			if report, err = dynflow.ValidateJoint(p.Updates); err != nil {
				return nil, refusals, err
			}
		}
		if !report.OK() {
			refuse(f, fmt.Sprintf("joint validation with the admitted set fails: %s", report.Summary()))
			continue
		}
		p.Report = report
		current, admitted = p, candidate
	}
	return current, refusals, nil
}

// violatingFlows names the flows implicated in a failed joint report: the
// owners of per-flow events when there are any, otherwise (congestion has
// no single owner) every flow in the batch.
func violatingFlows(report *dynflow.JointReport, flows []Flow) []string {
	seen := map[string]bool{}
	var names []string
	for _, ev := range report.Events {
		if !seen[ev.Flow] {
			seen[ev.Flow] = true
			names = append(names, fmt.Sprintf("%q", ev.Flow))
		}
	}
	if len(names) > 0 {
		sort.Strings(names)
		return names
	}
	for _, f := range flows {
		names = append(names, fmt.Sprintf("%q", f.Name))
	}
	return names
}

// residualGraph reduces every link's capacity by the steady loads of the
// other flows around flow i's migration: flows before i occupy their final
// paths, flows after i their initial paths. The result is g itself, not a
// copy, as long as no other flow occupies a link: schemes only read it.
func residualGraph(g *graph.Graph, flows []Flow, i int) (*graph.Graph, error) {
	residual := g
	for j, other := range flows {
		if j == i {
			continue
		}
		p := other.Init
		if j < i {
			p = other.Fin
		}
		for k := 1; k < len(p); k++ {
			if residual == g {
				residual = g.Clone()
			}
			left, ok := residual.Occupy(p[k-1], p[k], other.Demand)
			if !ok {
				return nil, fmt.Errorf("batch: flow %q path uses missing link", other.Name)
			}
			// A link fully consumed by another flow's steady state is gone
			// from the residual. If the migrating flow needs it, the mixed
			// configuration (that flow settled, this one not) is
			// oversubscribed — a case neither pure-initial nor pure-final
			// steady check covers — so the sequential order is infeasible
			// here.
			if left <= 0 && flowUsesLink(flows[i], p[k-1], p[k]) {
				return nil, fmt.Errorf("batch: link %s->%s is saturated by flow %q while flow %q migrates; reorder the batch: %w",
					g.Name(p[k-1]), g.Name(p[k]), other.Name, flows[i].Name, core.ErrInfeasible)
			}
		}
	}
	return residual, nil
}

func flowUsesLink(f Flow, from, to graph.NodeID) bool {
	for _, p := range []graph.Path{f.Init, f.Fin} {
		for k := 1; k < len(p); k++ {
			if p[k-1] == from && p[k] == to {
				return true
			}
		}
	}
	return false
}

// checkSteadyState verifies that the summed steady loads respect every
// link capacity; final selects the final paths. Violations name the
// contributing flows, and links are checked in a fixed order so the first
// reported violation is deterministic.
func checkSteadyState(g *graph.Graph, flows []Flow, final bool) error {
	// One entry per (link, flow) use, sorted by link: flows stay in batch
	// order within a link, and the links in the fixed report order. An
	// ordinary component's uses fit on the stack.
	type use struct {
		key  [2]graph.NodeID
		flow int
	}
	var buf [64]use
	uses := buf[:0]
	for i, f := range flows {
		p := f.Init
		if final {
			p = f.Fin
		}
		for k := 1; k < len(p); k++ {
			uses = append(uses, use{[2]graph.NodeID{p[k-1], p[k]}, i})
		}
	}
	slices.SortStableFunc(uses, func(a, b use) int {
		return cmp.Or(cmp.Compare(a.key[0], b.key[0]), cmp.Compare(a.key[1], b.key[1]))
	})
	for lo := 0; lo < len(uses); {
		key, hi, total := uses[lo].key, lo, graph.Capacity(0)
		for ; hi < len(uses) && uses[hi].key == key; hi++ {
			total += flows[uses[hi].flow].Demand
		}
		l, ok := g.Link(key[0], key[1])
		if ok && total <= l.Cap {
			lo = hi
			continue
		}
		names := make([]string, 0, hi-lo)
		for _, u := range uses[lo:hi] {
			names = append(names, fmt.Sprintf("%q", flows[u.flow].Name))
		}
		who := strings.Join(names, ", ")
		if !ok {
			return fmt.Errorf("missing link %s->%s used by flow(s) %s", g.Name(key[0]), g.Name(key[1]), who)
		}
		return fmt.Errorf("link %s->%s oversubscribed by flow(s) %s: %d > %d", g.Name(key[0]), g.Name(key[1]), who, total, l.Cap)
	}
	return nil
}
