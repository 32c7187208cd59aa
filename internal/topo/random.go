package topo

import (
	"fmt"
	"math/rand"

	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/graph"
)

// RandomParams configures the random two-path instance generator used by the
// simulation experiments (paper §V-B: "the initial routing path is fixed and
// the final routing path is chosen randomly").
type RandomParams struct {
	// N is the number of switches; the initial path traverses all of them.
	N int
	// Demand is the dynamic flow's demand; links get capacity Demand
	// ("tight": cannot carry old and new flow simultaneously) or 2×Demand
	// ("slack").
	Demand graph.Capacity
	// TightFraction is the probability that a link is tight. 1 reproduces
	// the paper's unit-capacity examples; lower values make more instances
	// feasible.
	TightFraction float64
	// MaxDelay bounds the per-link propagation delay, drawn uniformly from
	// [1, MaxDelay]. Delay diversity is what makes some instances
	// infeasible for every schedule (a faster new subpath catches up with
	// in-flight old traffic on a tight shared link).
	MaxDelay graph.Delay
	// FinalInclude is the probability that an interior switch appears on
	// the final path (in randomly permuted order). Higher values create
	// more old/new interleaving and thus harder instances.
	FinalInclude float64
	// InitInclude is the probability that an interior switch appears on
	// the initial path (in index order). The default 0 means 1: the
	// paper's fixed line through all switches. Values below 1 create
	// final-only switches that need fresh rule installs, which is what
	// gives the Fig. 9 rule counts their spread.
	InitInclude float64
}

// DefaultRandomParams mirrors the paper's simulation setup for a given
// switch count.
func DefaultRandomParams(n int) RandomParams {
	return RandomParams{
		N:             n,
		Demand:        1,
		TightFraction: 0.85,
		MaxDelay:      4,
		FinalInclude:  0.7,
	}
}

// RandomInstance generates one MUTP instance. The initial path is the line
// v1→...→vN; the final path goes from v1 to vN through a random subset of
// the interior switches in random order. Links required by either path are
// created with random delays and tight/slack capacities; a link used by both
// paths in the same direction is never assigned less than the demand.
func RandomInstance(rng *rand.Rand, p RandomParams) *dynflow.Instance {
	if p.N < 3 {
		panic(fmt.Sprintf("topo: RandomInstance needs N >= 3, got %d", p.N))
	}
	if p.Demand <= 0 {
		p.Demand = 1
	}
	if p.MaxDelay < 1 {
		p.MaxDelay = 1
	}
	g := graph.New()
	ids := make([]graph.NodeID, p.N)
	for i := 0; i < p.N; i++ {
		ids[i] = g.AddNode(fmt.Sprintf("v%d", i+1))
	}
	init := graph.Path{ids[0]}
	for _, v := range ids[1 : p.N-1] {
		if p.InitInclude <= 0 || p.InitInclude >= 1 || rng.Float64() < p.InitInclude {
			init = append(init, v)
		}
	}
	init = append(init, ids[p.N-1])

	// Final path: random permutation of a random interior subset.
	var interior []graph.NodeID
	for _, v := range ids[1 : p.N-1] {
		if rng.Float64() < p.FinalInclude {
			interior = append(interior, v)
		}
	}
	rng.Shuffle(len(interior), func(i, j int) {
		interior[i], interior[j] = interior[j], interior[i]
	})
	fin := make(graph.Path, 0, len(interior)+2)
	fin = append(fin, ids[0])
	fin = append(fin, interior...)
	fin = append(fin, ids[p.N-1])
	// Avoid the degenerate identical-path case: force a difference by
	// dropping one interior switch if the permutation happened to be the
	// identity over the full interior.
	if fin.Equal(init) {
		fin = append(fin[:1], fin[2:]...)
	}

	capFor := func() graph.Capacity {
		if rng.Float64() < p.TightFraction {
			return p.Demand
		}
		return 2 * p.Demand
	}
	delayFor := func() graph.Delay {
		return 1 + graph.Delay(rng.Int63n(int64(p.MaxDelay)))
	}
	addPath := func(path graph.Path) {
		for i := 1; i < len(path); i++ {
			if _, ok := g.Link(path[i-1], path[i]); !ok {
				g.MustAddLink(path[i-1], path[i], capFor(), delayFor())
			}
		}
	}
	addPath(init)
	addPath(fin)
	return &dynflow.Instance{G: g, Demand: p.Demand, Init: init, Fin: fin}
}

// RandomInstances generates count independent instances with the same
// parameters.
func RandomInstances(rng *rand.Rand, p RandomParams, count int) []*dynflow.Instance {
	out := make([]*dynflow.Instance, count)
	for i := range out {
		out[i] = RandomInstance(rng, p)
	}
	return out
}

// Embed re-roots in into the shared graph g: in's switches are added to g
// under prefix-qualified names, its links copied, and the instance
// returned is in on g, with the same demand and its paths mapped through
// remap (indexed by in's node IDs). Instances embedded under different
// prefixes share no links.
func Embed(g *graph.Graph, in *dynflow.Instance, prefix string) (on *dynflow.Instance, remap []graph.NodeID) {
	remap = make([]graph.NodeID, in.G.NumNodes())
	for _, id := range in.G.Nodes() {
		remap[id] = g.AddNode(prefix + in.G.Name(id))
	}
	for _, l := range in.G.Links() {
		g.MustAddLink(remap[l.From], remap[l.To], l.Cap, l.Delay)
	}
	rePath := func(p graph.Path) graph.Path {
		out := make(graph.Path, len(p))
		for i, id := range p {
			out[i] = remap[id]
		}
		return out
	}
	return &dynflow.Instance{G: g, Demand: in.Demand, Init: rePath(in.Init), Fin: rePath(in.Fin)}, remap
}
