package core

import (
	"fmt"
	"sort"
	"strings"

	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/graph"
)

// Chain is one dependency relation o ∈ O_t: switches in the order they must
// be updated (earlier elements divert the old flow that would otherwise
// collide with later elements' new flow).
type Chain []graph.NodeID

// Format renders the chain with switch names, e.g. "v2=>v4=>v1".
func (c Chain) Format(g *graph.Graph) string {
	parts := make([]string, len(c))
	for i, v := range c {
		parts[i] = g.Name(v)
	}
	return strings.Join(parts, "=>")
}

// dependencyChains computes the dependency relation set O_t of Algorithm 3
// at tick t for the pending (not yet scheduled) switches.
//
// For each pending switch vi, consider updating it at t: its new flow
// departs on link ⟨vi, v⟩ and arrives at v at t' = t + σ(vi, v). At t', v
// still forwards the old flow arriving from its current upstream v̄ toward
// its current next hop ṽ. If link ⟨v, ṽ⟩ cannot carry both flows
// (C < 2d), the old flow must have been diverted first, which requires v̄'s
// update to precede vi's: the relation (v̄ ⇒ vi).
//
// Relations sharing a common element are merged (the paper's example merges
// {v1⇒v2} and {v2⇒v3} into {v1⇒v2⇒v3}); the merged structure is a DAG whose
// weakly connected components are returned in topological order. A cyclic
// dependency yields ErrDependencyCycle (Algorithm 2 lines 7-8: no
// congestion-free update order exists under the paper's local reasoning).
// The node-indexed scratch (pending marks, active-path positions) lives in
// ws, stamped rather than reallocated per call.
func dependencyChains(in *dynflow.Instance, s *dynflow.Schedule, pending []graph.NodeID, t dynflow.Tick, ws *workspace) ([]Chain, error) {
	ws.pendGen++
	for _, v := range pending {
		if uint64(v) < uint64(len(ws.pend)) {
			ws.pend[v] = ws.pendGen
		}
	}
	isPending := func(v graph.NodeID) bool {
		return uint64(v) < uint64(len(ws.pend)) && ws.pend[v] == ws.pendGen
	}
	cur := activePathInto(ws.pathB[:0], in, s, t, ws)
	ws.pathB = cur
	ws.posGen++
	for i, u := range cur {
		if uint64(u) < uint64(len(ws.pos)) {
			ws.pos[u] = int32(i)
			ws.posStamp[u] = ws.posGen
		}
	}
	upstream := func(v graph.NodeID) graph.NodeID {
		if uint64(v) >= uint64(len(ws.pos)) || ws.posStamp[v] != ws.posGen || ws.pos[v] <= 0 {
			return graph.Invalid
		}
		return cur[ws.pos[v]-1]
	}
	succ := make(map[graph.NodeID][]graph.NodeID)
	for _, vi := range pending {
		v := in.NewNext(vi)
		if v == graph.Invalid || v == in.Dest() {
			continue
		}
		l, ok := in.G.Link(vi, v)
		if !ok {
			continue
		}
		tArr := t + dynflow.Tick(l.Delay)
		vUp := upstream(v)
		vNext := snapshotNext(in, s, v, tArr)
		if vNext == graph.Invalid {
			continue
		}
		out, ok := in.G.Link(v, vNext)
		if !ok {
			continue
		}
		if out.Cap < 2*in.Demand && vUp != graph.Invalid && isPending(vUp) && vUp != vi {
			succ[vUp] = append(succ[vUp], vi)
		}
	}

	// Kahn's algorithm per weakly connected component; a residue after the
	// topological pass is a cycle.
	comp := components(pending, succ)
	var chains []Chain
	for _, members := range comp {
		chain, ok := Chain(members), true
		if len(members) > 1 {
			chain, ok = topoOrder(members, succ)
		}
		if !ok {
			return nil, fmt.Errorf("%w: involving %s", ErrDependencyCycle, Chain(members).Format(in.G))
		}
		chains = append(chains, chain)
	}
	sort.Slice(chains, func(i, j int) bool { return chains[i][0] < chains[j][0] })
	return chains, nil
}

// components groups pending switches into weakly connected components of
// the dependency digraph, each sorted for determinism.
func components(pending []graph.NodeID, succ map[graph.NodeID][]graph.NodeID) [][]graph.NodeID {
	adj := make(map[graph.NodeID][]graph.NodeID)
	for u, vs := range succ {
		for _, v := range vs {
			adj[u] = append(adj[u], v)
			adj[v] = append(adj[v], u)
		}
	}
	seen := make(map[graph.NodeID]bool, len(pending))
	var out [][]graph.NodeID
	for _, start := range pending {
		if seen[start] {
			continue
		}
		var members []graph.NodeID
		stack := []graph.NodeID{start}
		seen[start] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			members = append(members, u)
			for _, v := range adj[u] {
				if !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		out = append(out, members)
	}
	return out
}

// topoOrder returns members in a topological order of the dependency edges,
// or ok=false when the component is cyclic. Ties break by node ID.
func topoOrder(members []graph.NodeID, succ map[graph.NodeID][]graph.NodeID) (Chain, bool) {
	inComp := make(map[graph.NodeID]bool, len(members))
	for _, v := range members {
		inComp[v] = true
	}
	indeg := make(map[graph.NodeID]int, len(members))
	for _, v := range members {
		indeg[v] = 0
	}
	for _, u := range members {
		for _, v := range succ[u] {
			if inComp[v] {
				indeg[v]++
			}
		}
	}
	var ready []graph.NodeID
	for _, v := range members {
		if indeg[v] == 0 {
			ready = append(ready, v)
		}
	}
	sort.Slice(ready, func(i, j int) bool { return ready[i] < ready[j] })
	var order Chain
	for len(ready) > 0 {
		v := ready[0]
		ready = ready[1:]
		order = append(order, v)
		var added bool
		for _, w := range succ[v] {
			if !inComp[w] {
				continue
			}
			indeg[w]--
			if indeg[w] == 0 {
				ready = append(ready, w)
				added = true
			}
		}
		if added {
			sort.Slice(ready, func(i, j int) bool { return ready[i] < ready[j] })
		}
	}
	if len(order) != len(members) {
		return nil, false
	}
	return order, true
}
