package core

import (
	"fmt"
	"slices"
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
// {v1⇒v2} and {v2⇒v3} into {v1⇒v2⇒v3}). On a valid instance the merged
// relation gives every switch at most one predecessor and one successor:
// vi has one new next hop v, v one upstream v̄ on the active path, and
// both paths are simple. So each weakly connected component is a chain,
// returned from its head, or a cycle, which yields ErrDependencyCycle
// naming the first cyclic component in pending order (Algorithm 2 lines
// 7-8: no congestion-free update order exists under the paper's local
// reasoning). Chains are sorted by head; a switch listed twice in
// pending counts once.
//
// Everything lives in ws: the node-indexed scratch (pending marks,
// active-path positions, the relation) is stamped or initialised for the
// pending switches only, and the returned chains are windows of
// ws.chainBuf, valid until the next call on ws. With no relation the
// chains are the pending switches as singletons in node-ID order, and a
// warm workspace allocates nothing.
func dependencyChains(in *dynflow.Instance, s *dynflow.Schedule, pending []graph.NodeID, t dynflow.Tick, ws *workspace) ([]Chain, error) {
	ws.pendGen++
	list := ws.pendList[:0]
	for _, v := range pending {
		if ws.pend[v] != ws.pendGen {
			ws.pend[v] = ws.pendGen
			ws.succ[v], ws.pred[v] = graph.Invalid, 0
			list = append(list, v)
		}
	}
	ws.pendList = list
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
	for _, vi := range list {
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
			ws.succ[vUp], ws.pred[vi] = vi, 1
		}
	}

	// Walk each chain from its head, heads in ID order; a walked switch
	// has pred -1. Whatever no walk reached lies on a cycle.
	heads := append(ws.heads[:0], list...)
	slices.Sort(heads)
	ws.heads = heads
	buf := ws.chainBuf[:0]
	if cap(buf) < len(list) {
		buf = make([]graph.NodeID, 0, len(list))
	}
	chains := ws.chains[:0]
	for _, h := range heads {
		if ws.pred[h] != 0 {
			continue
		}
		first := len(buf)
		for v := h; v != graph.Invalid; v = ws.succ[v] {
			buf = append(buf, v)
			ws.pred[v] = -1
		}
		chains = append(chains, buf[first:len(buf):len(buf)])
	}
	ws.chainBuf, ws.chains = buf, chains
	if len(buf) < len(list) {
		for _, v := range list {
			if ws.pred[v] == 1 {
				cyc := Chain{v}
				for w := ws.succ[v]; w != v; w = ws.succ[w] {
					cyc = append(cyc, w)
				}
				slices.Sort(cyc)
				return nil, fmt.Errorf("%w: involving %s", ErrDependencyCycle, cyc.Format(in.G))
			}
		}
	}
	return chains, nil
}
