package core

import (
	"errors"
	"fmt"

	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/graph"
)

// ErrNonUniformDelays is returned by TreeFeasible when link delays differ;
// Theorem 2 only covers identical transmission delays.
var ErrNonUniformDelays = errors.New("core: tree feasibility check requires identical link delays")

// TreeFeasible implements Algorithm 1: it decides in polynomial time
// whether a congestion- and loop-free timed update sequence exists for the
// instance, assuming every link has the same transmission delay (the
// precondition of Theorem 2).
//
// Interpretation notes (the paper describes Algorithm 1 at a high level,
// with the running example of Fig. 3): the algorithm repeatedly updates a
// switch whose dashed (final-path) edge crosses from the branch currently
// carrying the flow to the other branch. Such an update is always loop-free
// (checked via Algorithm 4's walk); it is congestion-safe iff either
//
//	(a) the new route from the switch to the point where it merges back
//	    into the currently active path is at least as slow as the old
//	    route (new units cannot catch up with in-flight old units:
//	    conditions (5)/(8) of the paper), or
//	(b) every link on the shared suffix after the merge point can carry
//	    both flows, i.e. its capacity is >= 2d (the merged-node ".cons"
//	    bookkeeping: condition (4) negated).
//
// Per Cases 1-2 of Theorem 2's proof, if a switch's update is infeasible
// under both conditions now, it remains infeasible at every later time, so
// a pass that gets stuck proves global infeasibility.
//
// The returned order is one feasible crossing sequence (useful for tests
// and exposition); callers needing concrete time points use Greedy.
func TreeFeasible(in *dynflow.Instance) (bool, []graph.NodeID, error) {
	if err := in.Validate(); err != nil {
		return false, nil, err
	}
	var sigma graph.Delay = -1
	for _, l := range in.G.Links() {
		if sigma < 0 {
			sigma = l.Delay
		} else if l.Delay != sigma {
			return false, nil, fmt.Errorf("%w: found %d and %d", ErrNonUniformDelays, sigma, l.Delay)
		}
	}

	// Virtual schedule: accepted switches are flipped at widely separated
	// ticks so that snapshot queries at "now" reflect exactly the accepted
	// updates. The structural conditions below do not depend on the
	// concrete tick values.
	s := dynflow.NewSchedule(0)
	step := dynflow.Tick(in.G.NumNodes())*dynflow.Tick(sigma) + 1
	now := dynflow.Tick(0)

	ws := getWorkspace(in.G.NumNodes())
	defer putWorkspace(ws)
	pending := in.UpdateSet()
	var order []graph.NodeID
	for len(pending) > 0 {
		progressed := false
		// The configuration only changes when a switch is accepted, which
		// ends the pass: one active path serves every candidate of it.
		cur := activePathInto(ws.pathA[:0], in, s, now, ws)
		ws.pathA = cur
		for i, v := range pending {
			if !loopFreeOnPath(in, s, cur, v, now) {
				continue
			}
			if !crossingSafe(in, s, cur, v, now) {
				continue
			}
			now += step
			s.Set(v, now)
			order = append(order, v)
			pending = append(pending[:i], pending[i+1:]...)
			progressed = true
			break
		}
		if !progressed {
			return false, order, nil
		}
	}
	return true, order, nil
}

// crossingSafe checks the congestion conditions (a)/(b) described on
// TreeFeasible for updating v under the configuration in force at tick
// now, whose active path is cur.
func crossingSafe(in *dynflow.Instance, s *dynflow.Schedule, cur graph.Path, v graph.NodeID, now dynflow.Tick) bool {
	iv := cur.Index(v)
	if iv < 0 {
		// v carries no fresh traffic: flipping its rule affects nobody
		// until upstream switches redirect flow, and those flips perform
		// their own checks against the then-active path.
		return true
	}
	w := in.NewNext(v)
	if w == graph.Invalid {
		return true
	}
	// Follow the new route from v under the current configuration until it
	// merges back into the active path (or reaches the destination).
	onCur := make(map[graph.NodeID]int, len(cur))
	for i, u := range cur {
		onCur[u] = i
	}
	newDelay := dynflow.Tick(0)
	mergeIdx := -1
	seen := map[graph.NodeID]bool{v: true}
	cursor := v
	next := w
	for {
		l, ok := in.G.Link(cursor, next)
		if !ok {
			// Dangling rule; the greedy/exact layers surface this as a
			// blackhole. Structurally treat as unsafe.
			return false
		}
		newDelay += dynflow.Tick(l.Delay)
		cursor = next
		if idx, ok := onCur[cursor]; ok && idx > iv {
			mergeIdx = idx
			break
		}
		if cursor == in.Dest() {
			break
		}
		if seen[cursor] {
			return false
		}
		seen[cursor] = true
		next = snapshotNext(in, s, cursor, now)
		if next == graph.Invalid {
			return false
		}
	}
	if mergeIdx < 0 {
		// The new route reaches the destination without touching the
		// active path: no link is shared, so no old/new collision.
		return true
	}
	// Old route delay from v to the merge point along the active path.
	oldDelay := dynflow.Tick(graph.Path(cur[iv : mergeIdx+1]).Delay(in.G))
	if newDelay >= oldDelay {
		return true // condition (a): no catch-up
	}
	// Condition (b): the shared suffix (merge point to destination along
	// the active path) must accommodate both flows.
	suffix := graph.Path(cur[mergeIdx:])
	if len(suffix) < 2 {
		return true // merge at the destination: nothing shared
	}
	return suffix.MinCapacity(in.G) >= 2*in.Demand
}
