// Package chronus is the public API of the Chronus library: consistent data
// plane updates for timed SDNs, reproducing "Chronus: Consistent Data Plane
// Updates in Timed SDNs" (ICDCS 2017).
//
// A network update instance moves one dynamic flow from an initial to a
// final path across a capacitated, delay-weighted topology. Chronus
// computes a timed schedule — one activation instant per switch — that is
// congestion-free and loop-free at every moment, without the rule-space
// headroom two-phase updates need.
//
// # Quick start
//
//	g := chronus.NewNetwork()
//	// ... add switches and links ...
//	in := &chronus.Instance{G: g, Demand: 1, Init: oldPath, Fin: newPath}
//	plan, err := chronus.Solve(in, chronus.SolveOptions{})
//	if err != nil { ... }
//	fmt.Println(plan.Schedule.Format(in)) // switch -> activation tick
//
// Schedules can be verified against the dynamic-flow model (Validate),
// compared against the exact optimum (SolveOptimal) and the baselines from
// the paper's evaluation (OrderReplacementRounds, CountRules), and executed
// on the bundled emulated data plane through the controller packages — see
// the examples directory and cmd/chronusd.
package chronus

import (
	"math/rand"

	"github.com/chronus-sdn/chronus/internal/baseline"
	"github.com/chronus-sdn/chronus/internal/core"
	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/graph"
	"github.com/chronus-sdn/chronus/internal/opt"
	"github.com/chronus-sdn/chronus/internal/topo"
)

// Core model types, aliased so values flow freely between the façade and
// the internal engines.
type (
	// Network is a directed topology of switches and capacitated,
	// delay-weighted links.
	Network = graph.Graph
	// NodeID identifies a switch.
	NodeID = graph.NodeID
	// Path is a simple path of switches.
	Path = graph.Path
	// Capacity is a link capacity in demand units.
	Capacity = graph.Capacity
	// Delay is a link propagation delay in ticks.
	Delay = graph.Delay
	// Tick is a discrete time step.
	Tick = dynflow.Tick
	// Instance is one minimum-update-time problem: a flow, its initial
	// path and its final path.
	Instance = dynflow.Instance
	// Schedule assigns each updated switch an activation tick.
	Schedule = dynflow.Schedule
	// Report is the validator's verdict on a schedule.
	Report = dynflow.Report
)

// Invalid is the null NodeID.
const Invalid = graph.Invalid

// NewNetwork returns an empty topology.
func NewNetwork() *Network { return graph.New() }

// NewSchedule returns an empty schedule starting at the given tick.
func NewSchedule(start Tick) *Schedule { return dynflow.NewSchedule(start) }

// Mode selects the greedy scheduler's acceptance test.
type Mode = core.Mode

// Scheduler modes.
const (
	// ModeExact re-validates each tentative update against the dynamic-
	// flow model: highest solution quality, cost grows with the instance.
	ModeExact = core.ModeExact
	// ModeFast uses closed-form in-flight accounting: linear-time checks,
	// suitable for thousands of switches; slightly more conservative.
	ModeFast = core.ModeFast
)

// ErrInfeasible reports that no congestion- and loop-free schedule exists
// (or none within the configured budget).
var ErrInfeasible = core.ErrInfeasible

// SolveOptions configures Solve.
type SolveOptions struct {
	// Start is t0, the first tick at which updates may activate.
	Start Tick
	// Mode selects the acceptance test (zero value: ModeExact).
	Mode Mode
	// BestEffort returns a complete schedule even when no violation-free
	// one exists: the stragglers flip after the drain and the Report
	// carries the damage.
	BestEffort bool
	// Obs receives scheduler counters (candidates accepted, deferred and
	// rejected, validator runs, wake jumps); nil disables instrumentation.
	Obs *MetricsRegistry
	// Trace receives per-decision scheduler events stamped with the
	// candidate activation tick; nil disables tracing.
	Trace *Tracer
}

// Plan is a solved update: the schedule plus scheduling diagnostics.
type Plan struct {
	Schedule *Schedule
	// Report validates the schedule; nil when Mode is ModeFast and
	// BestEffort did not fire (fast schedules are clean by construction;
	// call Validate for the certificate).
	Report *Report
	// BestEffort marks a schedule that includes forced flips after the
	// scheduler got stuck.
	BestEffort bool
}

// Solve computes a timed update schedule with the Chronus greedy scheduler
// (Algorithm 2 of the paper).
func Solve(in *Instance, o SolveOptions) (*Plan, error) {
	res, err := core.Greedy(in, core.Options{Start: o.Start, Mode: o.Mode, BestEffort: o.BestEffort, Obs: o.Obs, Trace: o.Trace})
	if err != nil {
		return nil, err
	}
	return &Plan{Schedule: res.Schedule, Report: res.Report, BestEffort: res.BestEffort}, nil
}

// Validate checks a schedule against the dynamic-flow model: every emission
// is traced through the time-varying configuration, and the report lists
// congestion (Definition 3), loops (Definition 2) and blackholes.
func Validate(in *Instance, s *Schedule) *Report { return dynflow.Validate(in, s) }

// SwitchSlack is one switch's scheduling tolerance (see ScheduleSlack).
type SwitchSlack = core.SwitchSlack

// ScheduleSlack computes, per scheduled switch, how many ticks its
// activation may slip before the schedule stops validating clean — the
// plan-side counterpart of the trace-derived critical path the audit
// tooling reports. Zero-slack switches are the schedule's critical path.
// The values equal those of re-validating the schedule once per switch
// and delay tick; they are computed incrementally, re-tracing only the
// units each extra tick of delay diverts.
func ScheduleSlack(in *Instance, s *Schedule) []SwitchSlack { return core.ScheduleSlack(in, s) }

// Feasible runs the polynomial tree algorithm (Algorithm 1): it decides
// whether any congestion- and loop-free schedule exists, for instances
// whose links share one transmission delay.
func Feasible(in *Instance) (bool, error) {
	ok, _, err := core.TreeFeasible(in)
	return ok, err
}

// OptimalOptions configures SolveOptimal.
type OptimalOptions struct {
	Start Tick
	// MaxNodes caps the branch-and-bound search (0 = 50000). When the
	// budget runs out the best incumbent is returned with Exact=false.
	MaxNodes int
}

// OptimalPlan is an exact-search result.
type OptimalPlan struct {
	Schedule *Schedule
	// Exact is true when Schedule is provably makespan-minimal.
	Exact bool
	// Nodes counts explored search nodes.
	Nodes int
}

// SolveOptimal computes a minimum-makespan schedule by branch and bound
// (the OPT baseline). It returns ErrInfeasible when provably no schedule
// exists.
func SolveOptimal(in *Instance, o OptimalOptions) (*OptimalPlan, error) {
	res, err := opt.Exact(in, opt.Options{Start: o.Start, MaxNodes: o.MaxNodes})
	if err != nil {
		return nil, err
	}
	switch res.Status {
	case opt.StatusInfeasible:
		return nil, ErrInfeasible
	case opt.StatusOptimal:
		return &OptimalPlan{Schedule: res.Schedule, Exact: true, Nodes: res.Nodes}, nil
	default:
		if res.Schedule == nil {
			return nil, ErrInfeasible
		}
		return &OptimalPlan{Schedule: res.Schedule, Exact: false, Nodes: res.Nodes}, nil
	}
}

// OrderReplacementRounds computes the OR baseline: loop-free update rounds
// that ignore capacities and delays (Ludwig et al.), useful for comparison
// and as the paper's Fig. 6-8 straw man.
func OrderReplacementRounds(in *Instance) ([][]NodeID, error) {
	return baseline.ORGreedy(in)
}

// RuleAccounting quantifies flow-table usage for Chronus versus two-phase
// commit on one instance (the paper's Fig. 9 comparison).
type RuleAccounting = baseline.RuleAccounting

// CountRules computes the rule accounting; ingressHosts is the number of
// host prefixes stamped at the ingress under two-phase updates.
func CountRules(in *Instance, ingressHosts int) RuleAccounting {
	return baseline.CountRules(in, ingressHosts)
}

// Fig1Example returns the paper's six-switch running example.
func Fig1Example() *Instance { return topo.Fig1Example() }

// EmulationTopo returns the ten-switch topology used by the emulated
// testbed experiments (the paper's Mininet setup).
func EmulationTopo() *Instance { return topo.EmulationTopo() }

// RandomInstanceParams configures RandomInstance.
type RandomInstanceParams = topo.RandomParams

// DefaultRandomInstanceParams mirrors the paper's simulation workload for a
// given switch count.
func DefaultRandomInstanceParams(n int) RandomInstanceParams {
	return topo.DefaultRandomParams(n)
}

// RandomInstance generates a random two-path update instance (the paper's
// "fixed initial route, random final route" workload).
func RandomInstance(rng *rand.Rand, p RandomInstanceParams) *Instance {
	return topo.RandomInstance(rng, p)
}
