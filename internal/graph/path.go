package graph

import (
	"errors"
	"fmt"
	"strings"
)

// Path is a sequence of nodes connected by links in a Graph. A valid path is
// simple (no repeated node).
type Path []NodeID

// ErrNotSimple is returned by Validate for a path that repeats a node.
var ErrNotSimple = errors.New("graph: path is not simple")

// ErrNoLink is returned by Validate when consecutive path nodes are not
// connected.
var ErrNoLink = errors.New("graph: path uses missing link")

// Validate checks that p is a simple path in g with at least two nodes.
func (p Path) Validate(g *Graph) error {
	if len(p) < 2 {
		return fmt.Errorf("graph: path too short (%d nodes)", len(p))
	}
	// One bit per node of g; graphs of up to 512 nodes use the stack.
	var small [8]uint64
	seen := small[:]
	if words := (g.NumNodes() + 63) / 64; words > len(small) {
		seen = make([]uint64, words)
	}
	for i, v := range p {
		if !g.HasNode(v) {
			return fmt.Errorf("%w: node %d", ErrUnknownNode, v)
		}
		w, bit := v/64, uint64(1)<<(v%64)
		if seen[w]&bit != 0 {
			return fmt.Errorf("%w: node %s repeats", ErrNotSimple, g.Name(v))
		}
		seen[w] |= bit
		if i > 0 {
			if _, ok := g.Link(p[i-1], v); !ok {
				return fmt.Errorf("%w: %s->%s", ErrNoLink, g.Name(p[i-1]), g.Name(v))
			}
		}
	}
	return nil
}

// Source returns the first node of the path.
func (p Path) Source() NodeID {
	if len(p) == 0 {
		return Invalid
	}
	return p[0]
}

// Dest returns the last node of the path.
func (p Path) Dest() NodeID {
	if len(p) == 0 {
		return Invalid
	}
	return p[len(p)-1]
}

// Contains reports whether v occurs on the path.
func (p Path) Contains(v NodeID) bool {
	return p.Index(v) >= 0
}

// Index returns the position of v on the path, or -1.
func (p Path) Index(v NodeID) int {
	for i, u := range p {
		if u == v {
			return i
		}
	}
	return -1
}

// NextHop returns the successor of v on the path, or Invalid if v is the
// last node or absent.
func (p Path) NextHop(v NodeID) NodeID {
	i := p.Index(v)
	if i < 0 || i == len(p)-1 {
		return Invalid
	}
	return p[i+1]
}

// Delay returns the total propagation delay φ(p) along the path. It panics
// if the path uses a missing link; call Validate first.
func (p Path) Delay(g *Graph) Delay {
	var total Delay
	for i := 1; i < len(p); i++ {
		l, ok := g.Link(p[i-1], p[i])
		if !ok {
			panic(fmt.Sprintf("graph: path uses missing link %s->%s", g.Name(p[i-1]), g.Name(p[i])))
		}
		total += l.Delay
	}
	return total
}

// MinCapacity returns the bottleneck capacity along the path.
func (p Path) MinCapacity(g *Graph) Capacity {
	var min Capacity = -1
	for i := 1; i < len(p); i++ {
		l, ok := g.Link(p[i-1], p[i])
		if !ok {
			panic(fmt.Sprintf("graph: path uses missing link %s->%s", g.Name(p[i-1]), g.Name(p[i])))
		}
		if min < 0 || l.Cap < min {
			min = l.Cap
		}
	}
	return min
}

// Equal reports whether p and q are the same node sequence.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// String renders the path with node IDs, e.g. "0->3->5".
func (p Path) String() string {
	parts := make([]string, len(p))
	for i, v := range p {
		parts[i] = fmt.Sprintf("%d", v)
	}
	return strings.Join(parts, "->")
}

// Format renders the path with node names from g.
func (p Path) Format(g *Graph) string {
	parts := make([]string, len(p))
	for i, v := range p {
		parts[i] = g.Name(v)
	}
	return strings.Join(parts, "->")
}

func (p Path) linkSet() map[[2]NodeID]bool {
	s := make(map[[2]NodeID]bool, len(p))
	for i := 1; i < len(p); i++ {
		s[[2]NodeID{p[i-1], p[i]}] = true
	}
	return s
}

// UnionNodes returns the set of nodes on either path, in deterministic order
// (p's order first, then q's new nodes).
func UnionNodes(p, q Path) []NodeID {
	seen := make(map[NodeID]struct{}, len(p)+len(q))
	var out []NodeID
	for _, v := range p {
		if _, ok := seen[v]; !ok {
			seen[v] = struct{}{}
			out = append(out, v)
		}
	}
	for _, v := range q {
		if _, ok := seen[v]; !ok {
			seen[v] = struct{}{}
			out = append(out, v)
		}
	}
	return out
}

// ShortestPath returns a minimum-delay path from src to dst using Dijkstra
// over link delays, or nil if dst is unreachable. Ties are broken by node ID
// for determinism.
func ShortestPath(g *Graph, src, dst NodeID) Path {
	const inf = int64(1) << 62
	n := g.NumNodes()
	dist := make([]int64, n)
	prev := make([]NodeID, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = inf
		prev[i] = Invalid
	}
	if !g.HasNode(src) || !g.HasNode(dst) {
		return nil
	}
	dist[src] = 0
	for {
		// Linear extraction: graphs here are small or sparse enough that a
		// heap is not worth the dependency on container/heap ordering.
		u := Invalid
		best := inf
		for i := 0; i < n; i++ {
			if !done[i] && dist[i] < best {
				best = dist[i]
				u = NodeID(i)
			}
		}
		if u == Invalid {
			break
		}
		done[u] = true
		if u == dst {
			break
		}
		for _, l := range g.Out(u) {
			nd := dist[u] + int64(l.Delay) + 1 // +1 biases toward fewer hops on zero-delay links
			if nd < dist[l.To] || (nd == dist[l.To] && prev[l.To] > u) {
				dist[l.To] = nd
				prev[l.To] = u
			}
		}
	}
	if prev[dst] == Invalid && src != dst {
		return nil
	}
	var rev Path
	for v := dst; v != Invalid; v = prev[v] {
		rev = append(rev, v)
		if v == src {
			break
		}
	}
	if rev[len(rev)-1] != src {
		return nil
	}
	out := make(Path, len(rev))
	for i, v := range rev {
		out[len(rev)-1-i] = v
	}
	return out
}
