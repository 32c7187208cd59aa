// Package graph provides the directed network model used throughout Chronus:
// switches (nodes), capacitated links with integer propagation delays, and
// simple paths. It is the common substrate for the dynamic-flow validator,
// the schedulers, and the data-plane emulator.
package graph

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
)

// NodeID identifies a switch. IDs are dense small integers assigned by the
// Graph builder; the zero value is a valid node once added.
type NodeID int

// Invalid is returned by lookups that find no node.
const Invalid NodeID = -1

// Delay is a link propagation delay in discrete ticks.
type Delay int64

// Capacity is a link capacity in demand units (e.g. Mbps).
type Capacity int64

// Link is a directed capacitated edge with a propagation delay.
type Link struct {
	From  NodeID
	To    NodeID
	Cap   Capacity
	Delay Delay
}

// Graph is a directed graph of switches and links. Node names are unique;
// at most one link may exist per ordered (from, to) pair. The zero value is
// an empty graph ready for use.
type Graph struct {
	names   []string
	byName  map[string]NodeID
	out     [][]Link // adjacency by source node
	in      [][]Link // reverse adjacency by destination node
	linkIdx map[[2]NodeID]int
	links   []Link
	// edits counts successful mutations; see Edits.
	edits uint64
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		byName:  make(map[string]NodeID),
		linkIdx: make(map[[2]NodeID]int),
	}
}

// Clone returns a deep copy of g: mutating either graph never shows
// through the other.
func (g *Graph) Clone() *Graph {
	return &Graph{
		names:   slices.Clone(g.names),
		byName:  maps.Clone(g.byName),
		out:     cloneAdjacency(g.out, len(g.links)),
		in:      cloneAdjacency(g.in, len(g.links)),
		linkIdx: maps.Clone(g.linkIdx),
		links:   slices.Clone(g.links),
		edits:   g.edits,
	}
}

// cloneAdjacency copies the m links of adj into one backing array. Each
// row is capped at its length, so appending to a row of the copy
// reallocates that row instead of running into its neighbour.
func cloneAdjacency(adj [][]Link, m int) [][]Link {
	rows, backing := make([][]Link, len(adj)), make([]Link, 0, m)
	for i, ls := range adj {
		lo := len(backing)
		backing = append(backing, ls...)
		rows[i] = backing[lo:len(backing):len(backing)]
	}
	return rows
}

// AddNode adds a node with the given name and returns its ID. Adding an
// existing name returns the existing ID.
func (g *Graph) AddNode(name string) NodeID {
	if g.byName == nil {
		g.byName = make(map[string]NodeID)
		g.linkIdx = make(map[[2]NodeID]int)
	}
	if id, ok := g.byName[name]; ok {
		return id
	}
	id := NodeID(len(g.names))
	g.names = append(g.names, name)
	g.byName[name] = id
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.edits++
	return id
}

// AddNodes adds all names in order and returns their IDs.
func (g *Graph) AddNodes(names ...string) []NodeID {
	ids := make([]NodeID, len(names))
	for i, n := range names {
		ids[i] = g.AddNode(n)
	}
	return ids
}

// ErrDuplicateLink is returned when a link between an ordered node pair
// already exists.
var ErrDuplicateLink = errors.New("graph: duplicate link")

// ErrUnknownNode is returned when an endpoint has not been added.
var ErrUnknownNode = errors.New("graph: unknown node")

// AddLink adds a directed link. Capacity must be positive and delay
// non-negative.
func (g *Graph) AddLink(from, to NodeID, cap Capacity, delay Delay) error {
	if !g.HasNode(from) || !g.HasNode(to) {
		return fmt.Errorf("%w: link %d->%d", ErrUnknownNode, from, to)
	}
	if from == to {
		return fmt.Errorf("graph: self-loop on node %s", g.Name(from))
	}
	if cap <= 0 {
		return fmt.Errorf("graph: non-positive capacity %d on %s->%s", cap, g.Name(from), g.Name(to))
	}
	if delay < 0 {
		return fmt.Errorf("graph: negative delay %d on %s->%s", delay, g.Name(from), g.Name(to))
	}
	key := [2]NodeID{from, to}
	if _, ok := g.linkIdx[key]; ok {
		return fmt.Errorf("%w: %s->%s", ErrDuplicateLink, g.Name(from), g.Name(to))
	}
	l := Link{From: from, To: to, Cap: cap, Delay: delay}
	g.linkIdx[key] = len(g.links)
	g.links = append(g.links, l)
	g.out[from] = append(g.out[from], l)
	g.in[to] = append(g.in[to], l)
	g.edits++
	return nil
}

// MustAddLink is AddLink but panics on error; intended for tests and
// hand-built fixtures.
func (g *Graph) MustAddLink(from, to NodeID, cap Capacity, delay Delay) {
	if err := g.AddLink(from, to, cap, delay); err != nil {
		panic(err)
	}
}

// AddBiLink adds links in both directions with the same capacity and delay.
func (g *Graph) AddBiLink(a, b NodeID, cap Capacity, delay Delay) error {
	if err := g.AddLink(a, b, cap, delay); err != nil {
		return err
	}
	return g.AddLink(b, a, cap, delay)
}

// RemoveLink deletes the link (from, to) if present and reports whether a
// link was removed. Used by failure-injection scenarios.
func (g *Graph) RemoveLink(from, to NodeID) bool {
	key := [2]NodeID{from, to}
	idx, ok := g.linkIdx[key]
	if !ok {
		return false
	}
	delete(g.linkIdx, key)
	// Remove from the flat slice by swapping with the last element.
	last := len(g.links) - 1
	if idx != last {
		moved := g.links[last]
		g.links[idx] = moved
		g.linkIdx[[2]NodeID{moved.From, moved.To}] = idx
	}
	g.links = g.links[:last]
	g.out[from] = removeLinkTo(g.out[from], to)
	g.in[to] = removeLinkFrom(g.in[to], from)
	g.edits++
	return true
}

func removeLinkTo(ls []Link, to NodeID) []Link {
	for i, l := range ls {
		if l.To == to {
			return append(ls[:i], ls[i+1:]...)
		}
	}
	return ls
}

func removeLinkFrom(ls []Link, from NodeID) []Link {
	for i, l := range ls {
		if l.From == from {
			return append(ls[:i], ls[i+1:]...)
		}
	}
	return ls
}

// SetCapacity updates the capacity of an existing link.
func (g *Graph) SetCapacity(from, to NodeID, cap Capacity) error {
	idx, ok := g.linkIdx[[2]NodeID{from, to}]
	if !ok {
		return fmt.Errorf("graph: no link %s->%s", g.Name(from), g.Name(to))
	}
	if cap <= 0 {
		return fmt.Errorf("graph: non-positive capacity %d", cap)
	}
	g.links[idx].Cap = cap
	g.syncAdjacency(from, to, g.links[idx])
	g.edits++
	return nil
}

// SetDelay updates the delay of an existing link.
func (g *Graph) SetDelay(from, to NodeID, delay Delay) error {
	idx, ok := g.linkIdx[[2]NodeID{from, to}]
	if !ok {
		return fmt.Errorf("graph: no link %s->%s", g.Name(from), g.Name(to))
	}
	if delay < 0 {
		return fmt.Errorf("graph: negative delay %d", delay)
	}
	g.links[idx].Delay = delay
	g.syncAdjacency(from, to, g.links[idx])
	g.edits++
	return nil
}

func (g *Graph) syncAdjacency(from, to NodeID, l Link) {
	for i := range g.out[from] {
		if g.out[from][i].To == to {
			g.out[from][i] = l
		}
	}
	for i := range g.in[to] {
		if g.in[to][i].From == from {
			g.in[to][i] = l
		}
	}
}

// Edits returns how many mutations (AddNode, AddLink, RemoveLink,
// SetCapacity, SetDelay) g has seen. Anything derived from g stays valid
// for as long as it holds the same *Graph and the count it was built at.
func (g *Graph) Edits() uint64 { return g.edits }

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.names) }

// NumLinks returns the number of links.
func (g *Graph) NumLinks() int { return len(g.links) }

// HasNode reports whether id names a node of g.
func (g *Graph) HasNode(id NodeID) bool { return id >= 0 && int(id) < len(g.names) }

// Name returns the name for id, or "?" if unknown.
func (g *Graph) Name(id NodeID) string {
	if !g.HasNode(id) {
		return "?"
	}
	return g.names[id]
}

// Lookup returns the node with the given name, or Invalid.
func (g *Graph) Lookup(name string) NodeID {
	if id, ok := g.byName[name]; ok {
		return id
	}
	return Invalid
}

// Link returns the link (from, to) and whether it exists.
func (g *Graph) Link(from, to NodeID) (Link, bool) {
	idx, ok := g.linkIdx[[2]NodeID{from, to}]
	if !ok {
		return Link{}, false
	}
	return g.links[idx], true
}

// Out returns the outgoing links of v. The slice must not be modified.
func (g *Graph) Out(v NodeID) []Link {
	if !g.HasNode(v) {
		return nil
	}
	return g.out[v]
}

// In returns the incoming links of v. The slice must not be modified.
func (g *Graph) In(v NodeID) []Link {
	if !g.HasNode(v) {
		return nil
	}
	return g.in[v]
}

// Links returns a copy of all links, ordered deterministically by
// (from, to).
func (g *Graph) Links() []Link {
	ls := append([]Link(nil), g.links...)
	sort.Slice(ls, func(i, j int) bool {
		if ls[i].From != ls[j].From {
			return ls[i].From < ls[j].From
		}
		return ls[i].To < ls[j].To
	})
	return ls
}

// Nodes returns all node IDs in ascending order.
func (g *Graph) Nodes() []NodeID {
	ids := make([]NodeID, len(g.names))
	for i := range ids {
		ids[i] = NodeID(i)
	}
	return ids
}

// String renders a compact description, e.g. "graph{n=6 m=7}".
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d}", g.NumNodes(), g.NumLinks())
}

// DOT renders the graph in Graphviz DOT format, optionally highlighting two
// paths (for example the initial and final routing) in distinct styles.
func (g *Graph) DOT(initial, final Path) string {
	onInit := initial.linkSet()
	onFin := final.linkSet()
	var b strings.Builder
	b.WriteString("digraph G {\n  rankdir=LR;\n")
	for _, id := range g.Nodes() {
		fmt.Fprintf(&b, "  %q;\n", g.Name(id))
	}
	for _, l := range g.Links() {
		attr := ""
		key := [2]NodeID{l.From, l.To}
		switch {
		case onInit[key] && onFin[key]:
			attr = ` [color="red" style="bold"]`
		case onInit[key]:
			attr = ` [color="blue"]`
		case onFin[key]:
			attr = ` [color="green" style="dashed"]`
		}
		fmt.Fprintf(&b, "  %q -> %q%s; // cap=%d delay=%d\n",
			g.Name(l.From), g.Name(l.To), attr, l.Cap, l.Delay)
	}
	b.WriteString("}\n")
	return b.String()
}
