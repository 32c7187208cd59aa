// Package scheme unifies the solver stack behind one pluggable interface:
// every update strategy — the Chronus greedy scheduler in both acceptance
// modes, the exact branch-and-bound OPT baseline, order-replacement rounds,
// the naive one-shot flip, the polynomial tree feasibility check, and the
// drain-paced sequential baseline — registers itself here under a stable
// name and is driven through the same Solve signature.
//
// Consumers (cmd/mutp, cmd/chronusd, the experiment harness, batch
// composition, the public facade) look schemes up by name instead of
// switching over engine-specific call sites, so adding a new update
// strategy is one Register call in one file: implement Scheme, register it
// in an init, and every CLI flag, REST endpoint, experiment cast and batch
// option picks it up.
//
// The result model is deliberately wide rather than lowest-common-
// denominator: timed schemes fill Schedule, round-based schemes fill
// Rounds, decision procedures fill Feasible, and search-based schemes
// annotate Exact and Diagnostics. Callers dispatch on the shape of the
// result (never on the scheme's name), which keeps them closed under new
// registrations.
package scheme

import (
	"errors"
	"time"

	"github.com/chronus-sdn/chronus/internal/core"
	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/graph"
	"github.com/chronus-sdn/chronus/internal/obs"
)

// Budget bounds the work a scheme may spend. Schemes ignore the knobs that
// do not apply to them: the greedy engines only honor MaxTicks, the
// branch-and-bound engines only MaxNodes and Timeout.
type Budget struct {
	// MaxNodes caps search nodes for branch-and-bound schemes
	// (0 = engine default). For the "or" scheme a non-zero MaxNodes (or
	// Timeout) selects the round-minimizing search instead of the greedy
	// round construction.
	MaxNodes int
	// Timeout bounds wall-clock search time (0 = none). Exceeding it
	// behaves like node exhaustion: the best incumbent is returned with
	// "budget_exhausted" set in Diagnostics.
	Timeout time.Duration
	// MaxTicks caps how far the greedy schedulers may advance past Start
	// (0 = automatic bound derived from the instance's drain time).
	MaxTicks dynflow.Tick
}

// Options is the uniform configuration every scheme accepts.
type Options struct {
	// Start is t0, the first tick at which updates may activate.
	Start dynflow.Tick
	// Budget bounds the scheme's work; the zero value means engine
	// defaults everywhere.
	Budget Budget
	// BestEffort asks for a complete schedule even when no violation-free
	// one exists; the Result's BestEffort flag is then set and its Report
	// carries the damage. Schemes without a best-effort notion ignore it.
	BestEffort bool
	// Obs receives engine counters; nil disables instrumentation.
	Obs *obs.Registry
	// Trace receives per-decision engine events; nil disables tracing.
	Trace *obs.Tracer
	// VT is the virtual time stamped on the solve span (schemes run
	// outside the sim clock, so the caller supplies the coordinate).
	VT int64
	// Span is the parent span the solve span is recorded under (zero
	// for a root); only meaningful when Trace is set.
	Span obs.SpanID
}

// Diagnostics carries scheme-specific counters (search nodes, validator
// runs, budget exhaustion) under stable snake_case keys.
type Diagnostics map[string]int64

// Result is the uniform outcome of a Solve. Exactly which fields are set
// depends on the kind of scheme:
//
//   - timed schemes (chronus, chronus-fast, opt, oneshot, sequential) set
//     Schedule; Report may additionally hold a validation when the engine
//     produced one as a side effect;
//   - round-based schemes (or) set Rounds and leave Schedule nil — replay
//     the rounds on the validator via baseline.ORSchedule to study their
//     transients;
//   - decision procedures (tree) set Feasible, plus a witness update order
//     in Rounds when the instance is feasible.
//
// A nil Schedule with nil Rounds and nil Feasible means a search budget
// ran out before anything was found ("budget_exhausted" is then set in
// Diagnostics); that is not a proof of infeasibility, which is instead
// reported as ErrInfeasible.
type Result struct {
	// Schedule is the timed update schedule, when the scheme produces one.
	Schedule *dynflow.Schedule
	// Rounds is the round sequence of round-based schemes, or the witness
	// crossing order of a feasible tree decision.
	Rounds [][]graph.NodeID
	// Report is the engine's own validation of Schedule, when it computed
	// one; nil means the caller should run dynflow.Validate for the
	// certificate.
	Report *dynflow.Report
	// Exact is true when the result is provably optimal (opt, or with
	// budget to spare) or the decision is proven (tree).
	Exact bool
	// BestEffort marks a complete-but-possibly-violating schedule: the
	// greedy scheduler got stuck and flipped the stragglers, or the scheme
	// (oneshot) knowingly ignores transient consistency. Report then
	// carries the violations.
	BestEffort bool
	// Feasible is the verdict of decision-only schemes; nil for schemes
	// that construct solutions.
	Feasible *bool
	// Diagnostics holds engine counters; may be nil.
	Diagnostics Diagnostics
}

// Scheme is one update strategy.
type Scheme interface {
	// Name is the stable registry key (also the CLI and REST spelling).
	Name() string
	// Solve computes the scheme's result for the instance. It returns
	// ErrInfeasible (possibly wrapped) when the instance provably admits
	// no solution of the scheme's kind, and ErrUnsupported when the
	// instance violates a precondition of the scheme (e.g. non-uniform
	// delays for the tree check).
	Solve(in *dynflow.Instance, o Options) (*Result, error)
}

// ErrInfeasible reports proven infeasibility; it is the core scheduler's
// sentinel so existing errors.Is checks keep working across the stack.
var ErrInfeasible = core.ErrInfeasible

// ErrUnsupported reports that the instance violates a structural
// precondition of the scheme (the scheme, not the instance, is the wrong
// tool); callers iterating several schemes typically skip and move on.
var ErrUnsupported = errors.New("scheme: instance not supported by this scheme")

// infeasibleError marks an engine-specific error as infeasibility without
// flattening its message: errors.Is sees both the original error and
// ErrInfeasible.
type infeasibleError struct{ err error }

func (e infeasibleError) Error() string   { return e.err.Error() }
func (e infeasibleError) Unwrap() []error { return []error{e.err, ErrInfeasible} }

// unsupportedError marks an engine-specific precondition failure as
// ErrUnsupported while preserving the original error for errors.Is.
type unsupportedError struct{ err error }

func (e unsupportedError) Error() string   { return e.err.Error() }
func (e unsupportedError) Unwrap() []error { return []error{e.err, ErrUnsupported} }
