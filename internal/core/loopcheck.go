package core

import (
	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/graph"
)

// LoopFree implements Algorithm 4: it reports whether updating switch v at
// tick t is free of forwarding loops under the configuration in force at t.
//
// Let w be v's new next hop. Two walks are performed:
//
//   - backward (the paper's formulation): from v along the incoming solid
//     (currently active) lines toward the source; if w appears upstream, a
//     unit that travelled through w to reach v would be sent back to w by
//     the new rule — a loop (Definition 2);
//   - forward: from w along the current configuration; redirected units
//     must reach the destination without returning to v, entering a cycle,
//     or hitting a switch with no rule (blackhole).
//
// The forward walk subsumes the backward one (if w is upstream of v on the
// active path, the walk from w reaches v), but both are kept: the backward
// walk is the paper's check and is cheaper on the common reject.
//
// The check inspects the snapshot configuration at t, which is exact for
// units on the active path; ModeExact additionally re-validates, covering
// in-flight units that crossed earlier flips, while ModeFast defers updates
// of switches still receiving draining traffic (see fastState).
//
// TreeFeasible decides with this walk. The greedy engines ask loopChecker
// instead, which agrees on every switch of the active path but lets a
// switch off it redirect into a route that leads back to itself, so the
// two are not interchangeable: Algorithm 1 run over loopChecker changes
// verdicts (TestLoopCheckerAgainstLoopFree has the numbers).
func LoopFree(in *dynflow.Instance, s *dynflow.Schedule, v graph.NodeID, t dynflow.Tick) bool {
	ws := getWorkspace(in.G.NumNodes())
	defer putWorkspace(ws)
	return loopFreeOnPath(in, s, activePathInto(nil, in, s, t, ws), v, t)
}

// loopFreeOnPath is LoopFree with the snapshot active path precomputed;
// TreeFeasible calls it once per candidate without re-walking the
// configuration.
func loopFreeOnPath(in *dynflow.Instance, s *dynflow.Schedule, cur graph.Path, v graph.NodeID, t dynflow.Tick) bool {
	w := in.NewNext(v)
	if w == graph.Invalid {
		return true
	}
	if i := cur.Index(v); i >= 0 {
		// Walk back via in.solidline.source from v toward the source.
		for j := i - 1; j >= 0; j-- {
			if cur[j] == w {
				return false
			}
		}
	}
	seen := make(map[graph.NodeID]bool, in.G.NumNodes())
	for cursor := w; cursor != in.Dest(); {
		if cursor == graph.Invalid {
			// Blackhole on the redirected route: reject so that rules are
			// installed destination-first (install-before-use).
			return false
		}
		if cursor == v || seen[cursor] {
			return false
		}
		seen[cursor] = true
		cursor = snapshotNext(in, s, cursor, t)
	}
	return true
}
