package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/graph"
	"github.com/chronus-sdn/chronus/internal/topo"
)

// dependencyChainsRef is Algorithm 3 on maps, as dependencyChains computed
// it before it moved onto the workspace: the relation as a successor map,
// components by depth-first search, Kahn's algorithm per component. It is
// the oracle dependencyChains is held to.
func dependencyChainsRef(in *dynflow.Instance, s *dynflow.Schedule, pending []graph.NodeID, t dynflow.Tick, ws *workspace) ([]Chain, error) {
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

// TestDependencyChainsMatchReference replays exact-mode greedy runs on
// random instances (tight and delay-diverse ones, so relations, merged
// chains and cycles all occur) and, at every tick from the start to the
// last flip, compares dependencyChains with the map-based reference on the
// state the greedy loop had then: the flips before the tick and the
// pending switches in the loop's order. Each tick is also checked on the
// pending list shuffled with one switch repeated, which the greedy loop
// never passes but the contract covers: a duplicate counts once and
// singletons come in node-ID order whatever the pending order.
func TestDependencyChainsMatchReference(t *testing.T) {
	var ticks, empty, related, cycles int
	check := func(label string, in *dynflow.Instance, s *dynflow.Schedule, pending []graph.NodeID, tick dynflow.Tick, ws *workspace) {
		t.Helper()
		want, wantErr := dependencyChainsRef(in, s, pending, tick, ws)
		got, gotErr := dependencyChains(in, s, pending, tick, ws)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: error %v, reference %v", label, gotErr, wantErr)
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: chains %v, reference %v", label, got, want)
		}
		switch {
		case wantErr != nil:
			cycles++
		case !slices.ContainsFunc(want, func(c Chain) bool { return len(c) > 1 }):
			empty++
		default:
			related++
		}
	}
	rng := rand.New(rand.NewSource(43))
	for draw := 0; draw < 300; draw++ {
		p := topo.DefaultRandomParams(3 + draw%18)
		p.TightFraction = []float64{0.5, 0.85, 1}[draw%3]
		p.FinalInclude = 0.5 + 0.5*rng.Float64()
		in := topo.RandomInstance(rng, p)
		res, err := Greedy(in, Options{Mode: ModeExact, BestEffort: true})
		if err != nil {
			t.Fatalf("draw %d: %v", draw, err)
		}
		end := res.Schedule.Start
		for _, tick := range res.Schedule.Times {
			end = max(end, tick)
		}
		ws := getWorkspace(in.G.NumNodes())
		for tick := res.Schedule.Start; tick <= end; tick++ {
			s := dynflow.NewSchedule(res.Schedule.Start)
			var pending []graph.NodeID
			for _, v := range in.UpdateSet() {
				if at, ok := res.Schedule.Time(v); ok && at < tick {
					s.Set(v, at)
				} else {
					pending = append(pending, v)
				}
			}
			if len(pending) == 0 {
				break
			}
			ticks++
			label := fmt.Sprintf("draw %d tick %d", draw, tick)
			check(label, in, s, pending, tick, ws)
			shuffled := append([]graph.NodeID(nil), pending...)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			shuffled = append(shuffled, shuffled[rng.Intn(len(shuffled))])
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			check(label+" shuffled", in, s, shuffled, tick, ws)
		}
		putWorkspace(ws)
	}
	if empty < 100 || related < 100 || cycles < 20 {
		t.Fatalf("corpus too small: %d ticks, %d empty relations, %d related, %d cyclic", ticks, empty, related, cycles)
	}
	t.Logf("%d ticks: %d empty relations, %d related, %d cyclic", ticks, empty, related, cycles)
}

// TestDependencyChainsEmptyRelationAllocs: when no pending switch waits on
// another, a warm workspace answers without allocating.
func TestDependencyChainsEmptyRelationAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := topo.DefaultRandomParams(20)
	p.TightFraction = 0
	in := topo.RandomInstance(rng, p)
	s := dynflow.NewSchedule(0)
	pending := in.UpdateSet()
	ws := getWorkspace(in.G.NumNodes())
	defer putWorkspace(ws)
	chains, err := dependencyChains(in, s, pending, 0, ws)
	if err != nil || len(chains) != len(pending) {
		t.Fatalf("chains %v (%v), want %d singletons", chains, err, len(pending))
	}
	if a := testing.AllocsPerRun(100, func() { _, _ = candidateOrder(in, s, pending, 0, ws) }); a != 0 {
		t.Fatalf("candidateOrder on an empty relation: %.1f allocations, want 0", a)
	}
}
