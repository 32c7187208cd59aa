// Package opt provides the exact solver for the Minimum Update Time Problem:
// a combinatorial branch and bound over timed update schedules (the OPT
// baseline of the paper's evaluation, there obtained by branch and bound on
// integer program (3)). Its tests check it against brute-force enumeration
// of every schedule on small instances.
//
// Exact search is exponential — MUTP is NP-complete (Theorem 1) — so Exact
// takes a node budget. Exhausting the budget returns the best incumbent
// (seeded by the greedy schedule when one exists) with StatusBudget, which
// is how the evaluation reproduces the paper's Fig. 10 "does not complete
// within the limit" behaviour for OPT.
package opt

import (
	"fmt"
	"time"

	"github.com/chronus-sdn/chronus/internal/core"
	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/graph"
)

// Status classifies an exact-search outcome.
type Status int

const (
	// StatusOptimal means the returned schedule has provably minimum
	// makespan.
	StatusOptimal Status = iota + 1
	// StatusInfeasible means no congestion- and loop-free schedule exists
	// within the makespan cap.
	StatusInfeasible
	// StatusBudget means the node budget ran out; Schedule (if non-nil) is
	// the best incumbent found.
	StatusBudget
)

func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusBudget:
		return "budget-exhausted"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Options configures Exact.
type Options struct {
	// Start is t0.
	Start dynflow.Tick
	// MaxNodes caps search nodes, where a node is one validator invocation
	// (0 = default 50000).
	MaxNodes int
	// Timeout bounds the wall-clock search time (0 = none). Exceeding it
	// behaves like budget exhaustion: the best incumbent is returned with
	// StatusBudget — the paper's "does not complete within the time
	// limit".
	Timeout time.Duration
}

// Result is the outcome of Exact.
type Result struct {
	Status   Status
	Schedule *dynflow.Schedule // nil unless a schedule was found
	Nodes    int
}

// Exact computes a minimum-makespan congestion- and loop-free schedule by
// iterative deepening on the makespan with depth-first search over per-tick
// update sets.
//
// Soundness of pruning: when the search stands at tick t, every violation
// event stamped at or before t (link-instance departures, loop or blackhole
// arrivals) is fully determined by the flips already placed — later flips
// only affect arrivals after t — so a partial schedule exhibiting such an
// event can be discarded without losing any completion.
func Exact(in *dynflow.Instance, opts Options) (*Result, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	pending := in.UpdateSet()
	maxNodes := opts.MaxNodes
	if maxNodes <= 0 {
		maxNodes = 50000
	}
	res := &Result{}
	if len(pending) == 0 {
		res.Status = StatusOptimal
		res.Schedule = dynflow.NewSchedule(opts.Start)
		return res, nil
	}

	// Seed the incumbent with the greedy schedule: it provides the upper
	// bound for iterative deepening and the fallback on budget exhaustion.
	// The seed uses the fast greedy: at the scales where Exact is asked to
	// prove anything it matches the exact greedy, and at Fig. 10 scales the
	// seeding cost stays a small fraction of the search budget.
	greedyRes, greedyErr := core.Greedy(in, core.Options{Start: opts.Start, Mode: core.ModeFast})
	if len(pending) <= 64 {
		// The fast engine's closed-form checks are more conservative than
		// the validator; on small instances the exact greedy often finds a
		// schedule (or a shorter one), so take the better of the two seeds.
		exactRes, exactErr := core.Greedy(in, core.Options{Start: opts.Start, Mode: core.ModeExact})
		if exactErr == nil && (greedyErr != nil || exactRes.Schedule.Makespan() < greedyRes.Schedule.Makespan()) {
			greedyRes, greedyErr = exactRes, nil
		}
	}
	// Without a greedy seed the bound is drain-derived.
	ub := dynflow.Tick(in.Init.Delay(in.G)+in.Fin.Delay(in.G))*2 + dynflow.Tick(len(pending))
	if greedyErr == nil {
		res.Schedule = greedyRes.Schedule
		ub = greedyRes.Schedule.Makespan()
	}

	e := &exactSearch{in: in, start: opts.Start, maxNodes: maxNodes}
	if opts.Timeout > 0 {
		e.deadline = time.Now().Add(opts.Timeout)
	}
	for m := dynflow.Tick(0); m <= ub; m++ {
		if res.Schedule != nil && res.Schedule.Makespan() <= m {
			// The incumbent already achieves this makespan; it is optimal.
			res.Status = StatusOptimal
			res.Nodes = e.nodes
			return res, nil
		}
		s := dynflow.NewSchedule(opts.Start)
		found, exhausted := e.search(s, pending, opts.Start, m)
		if found != nil {
			res.Schedule = found
			res.Status = StatusOptimal
			res.Nodes = e.nodes
			return res, nil
		}
		if exhausted {
			res.Nodes = e.nodes
			res.Status = StatusBudget
			return res, nil
		}
	}
	res.Nodes = e.nodes
	if res.Schedule != nil {
		res.Status = StatusOptimal
		return res, nil
	}
	res.Status = StatusInfeasible
	return res, nil
}

type exactSearch struct {
	in       *dynflow.Instance
	start    dynflow.Tick
	maxNodes int
	nodes    int
	deadline time.Time
}

// exhaustedBudget reports whether the node or time budget ran out; with a
// timeout set it reads the clock on every node.
func (e *exactSearch) exhaustedBudget() bool {
	if e.nodes > e.maxNodes {
		return true
	}
	if !e.deadline.IsZero() && time.Now().After(e.deadline) {
		return true
	}
	return false
}

// search tries to flip all pending switches within makespan m, standing at
// tick t with the flips in s already placed. It returns the completed
// schedule or nil, plus whether the node budget ran out.
func (e *exactSearch) search(s *dynflow.Schedule, pending []graph.NodeID, t dynflow.Tick, m dynflow.Tick) (*dynflow.Schedule, bool) {
	if len(pending) == 0 {
		e.nodes++
		if e.exhaustedBudget() {
			return nil, true
		}
		if dynflow.Validate(e.in, s).OK() {
			return s.Clone(), false
		}
		return nil, false
	}
	if t > e.start+m {
		return nil, false
	}
	forced := t == e.start+m // last tick: everything remaining must flip
	return e.chooseSubset(s, pending, 0, t, m, forced)
}

// chooseSubset enumerates the subset of pending[idx:] flipping at tick t
// (include-first, so larger update sets are tried earlier), then validates
// events up to t and advances to t+1.
func (e *exactSearch) chooseSubset(s *dynflow.Schedule, pending []graph.NodeID, idx int, t, m dynflow.Tick, forced bool) (*dynflow.Schedule, bool) {
	if idx == len(pending) {
		e.nodes++
		if e.exhaustedBudget() {
			return nil, true
		}
		if !violationFreeBefore(e.in, s, t) {
			return nil, false
		}
		var rest []graph.NodeID
		for _, v := range pending {
			if _, ok := s.Time(v); !ok {
				rest = append(rest, v)
			}
		}
		return e.search(s, rest, t+1, m)
	}
	v := pending[idx]
	// Include v at t.
	s.Set(v, t)
	if found, exhausted := e.chooseSubset(s, pending, idx+1, t, m, forced); found != nil || exhausted {
		return found, exhausted
	}
	delete(s.Times, v)
	// Exclude v (not allowed at the last tick).
	if forced {
		return nil, false
	}
	return e.chooseSubset(s, pending, idx+1, t, m, forced)
}

// violationFreeBefore validates the partial schedule (unflipped switches
// keep old rules) and accepts it when every violation event is stamped
// strictly after cutoff — such events may still be repaired by later flips,
// while events at or before cutoff are final.
//
// The cutoff is exact for congestion and blackholes and one tick
// conservative for loops:
//   - Congestion is stamped at the departure tick. A load on
//     (u, old next, cutoff+1) with u not yet flipped is diverted if u
//     flips at cutoff+1, so pruning it here can lose a clean completion
//     (TestPruningKeepsRepairableViolations).
//   - A blackhole is stamped at the tick the unit reaches a switch with no
//     rule. Flipping that switch at cutoff+1 installs its rule in time, so
//     the same holds.
//   - A loop is stamped at the unit's arrival at the revisited switch.
//     Instance.Validate requires delay >= 1 on both paths, so an arrival
//     at cutoff+1 follows from departures at or before cutoff, which the
//     flips already placed fix. Pruning loops at cutoff+1 too would be
//     sound and return the same makespans; it would only visit fewer
//     nodes, which moves Result.Nodes and with it where the node budget
//     runs out (Fig. 10), so the rule stays as it is.
func violationFreeBefore(in *dynflow.Instance, s *dynflow.Schedule, cutoff dynflow.Tick) bool {
	r := dynflow.Validate(in, s)
	for _, ev := range r.Congestion {
		if ev.Link.Depart <= cutoff {
			return false
		}
	}
	for _, ev := range r.Loops {
		if ev.Tick <= cutoff {
			return false
		}
	}
	for _, ev := range r.Blackholes {
		if ev.Tick <= cutoff {
			return false
		}
	}
	return true
}
