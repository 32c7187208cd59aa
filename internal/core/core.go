// Package core implements the paper's primary contribution: Chronus, a set
// of algorithms that compute timed update schedules for the Minimum Update
// Time Problem (MUTP). A schedule assigns each switch whose rule changes an
// absolute activation tick such that the data plane stays congestion-free
// and loop-free at every moment while the dynamic flow migrates from the
// initial to the final path.
//
// The package contains:
//
//   - Greedy (Algorithm 2): per-tick maximal updates driven by
//     dependency-relation sets and a loop check;
//   - DependencyChains (Algorithm 3): the congestion-induced update order;
//   - LoopFree (Algorithm 4): the backward walk detecting transient loops;
//   - TreeFeasible (Algorithm 1): the polynomial feasibility check for
//     identical link delays.
//
// Greedy runs in one of two modes. ModeExact (the default) accepts a
// candidate update only after re-validating the partial schedule with the
// dynflow ground-truth validator, so the returned schedule is always
// congestion- and loop-free by construction (Theorem 3 made constructive).
// ModeFast applies only the paper's local checks (Algorithms 3 and 4) and
// runs in O(n) per tick; it is the variant whose running time the paper's
// Fig. 10 reports at thousands of switches.
package core

import (
	"errors"
	"fmt"

	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/graph"
	"github.com/chronus-sdn/chronus/internal/obs"
)

// Mode selects the greedy acceptance test.
type Mode int

const (
	// ModeExact re-validates every tentative update with the dynflow
	// validator; the result is guaranteed violation-free.
	ModeExact Mode = iota + 1
	// ModeFast uses only the paper's local checks (dependency heads +
	// Algorithm 4); it is linear per tick but relies on Theorem 3's
	// argument rather than re-validation.
	ModeFast
)

func (m Mode) String() string {
	switch m {
	case ModeExact:
		return "exact"
	case ModeFast:
		return "fast"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Options configures Greedy.
type Options struct {
	// Start is t0, the first tick at which an update may activate.
	Start dynflow.Tick
	// Mode selects the acceptance test; zero value means ModeExact.
	Mode Mode
	// MaxTicks caps the number of ticks the scheduler may advance past
	// Start before giving up (0 = automatic bound derived from the
	// instance's drain time).
	MaxTicks dynflow.Tick
	// BestEffort makes Greedy return a complete schedule even when no
	// violation-free one was found: once the data plane has drained and no
	// switch can safely update, the remaining switches are flipped anyway
	// and the violations are reported. This mirrors what an operator must
	// do when the instance is infeasible (the update cannot simply be
	// abandoned) and feeds the Fig. 8 congested-link accounting.
	BestEffort bool
	// Obs receives scheduler counters (candidates accepted / deferred /
	// rejected, wake-heap jumps, validator invocations, backoff resets,
	// dependency cycles); nil disables instrumentation.
	Obs *obs.Registry
	// Trace receives per-decision scheduler events stamped with the
	// schedule tick; nil disables tracing.
	Trace *obs.Tracer
}

// ErrInfeasible is returned when no congestion- and loop-free schedule was
// found: the data plane drained to a static state and no pending switch
// could be updated.
var ErrInfeasible = errors.New("core: no feasible congestion- and loop-free update schedule")

// ErrDependencyCycle is returned by the fast mode when Algorithm 3's
// dependency relation contains a cycle (paper: the update is infeasible).
var ErrDependencyCycle = errors.New("core: dependency relation contains a cycle")

// snapshotNext returns v's forwarding decision under the configuration in
// force at tick t (all scheduled flips at or before t applied).
func snapshotNext(in *dynflow.Instance, s *dynflow.Schedule, v graph.NodeID, t dynflow.Tick) graph.NodeID {
	return dynflow.NextHopAt(in, s, v, t)
}

// autoMaxTicks derives a generous scheduling horizon: every switch may need
// to wait for a full drain of in-flight traffic, and a trace visits each
// switch at most once with bounded per-hop delay.
func autoMaxTicks(in *dynflow.Instance) dynflow.Tick {
	drain := dynflow.Tick(int64(maxLinkDelay(in.G)) * int64(in.G.NumNodes()+1))
	n := dynflow.Tick(len(in.UpdateSet()) + 1)
	return n*drain + dynflow.Tick(in.Init.Delay(in.G)) + 4
}

// maxLinkDelay is the largest link delay in g (at least 1), the quantity
// behind the automatic tick budgets of both greedy modes.
func maxLinkDelay(g *graph.Graph) graph.Delay {
	var maxDelay graph.Delay = 1
	for v := 0; v < g.NumNodes(); v++ {
		for _, l := range g.Out(graph.NodeID(v)) {
			if l.Delay > maxDelay {
				maxDelay = l.Delay
			}
		}
	}
	return maxDelay
}

func minUint(a, b uint) uint {
	if a < b {
		return a
	}
	return b
}
