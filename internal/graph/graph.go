// Package graph provides the directed network model used throughout Chronus:
// switches (nodes), capacitated links with integer propagation delays, and
// simple paths. It is the common substrate for the dynamic-flow validator,
// the schedulers, and the data-plane emulator.
package graph

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"slices"
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
	names  []string
	byName map[string]NodeID
	// out is the only link store: out[v] holds v's outgoing links in
	// insertion order, and every lookup scans one row (out-degrees are
	// small, so the scan is shorter than a hash of the node pair).
	out      [][]Link
	numLinks int
	// edits counts successful mutations; see Edits.
	edits uint64
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{byName: make(map[string]NodeID)}
}

// Clone returns a deep copy of g: mutating either graph never shows
// through the other. The links are copied into one backing array; each
// row is capped at its length, so appending to a row of the copy
// reallocates that row instead of running into its neighbour.
func (g *Graph) Clone() *Graph {
	rows, backing := make([][]Link, len(g.out)), make([]Link, 0, g.numLinks)
	for i, ls := range g.out {
		lo := len(backing)
		backing = append(backing, ls...)
		rows[i] = backing[lo:len(backing):len(backing)]
	}
	return &Graph{
		names:    slices.Clone(g.names),
		byName:   maps.Clone(g.byName),
		out:      rows,
		numLinks: g.numLinks,
		edits:    g.edits,
	}
}

// AddNode adds a node with the given name and returns its ID. Adding an
// existing name returns the existing ID.
func (g *Graph) AddNode(name string) NodeID {
	if g.byName == nil {
		g.byName = make(map[string]NodeID)
	}
	if id, ok := g.byName[name]; ok {
		return id
	}
	id := NodeID(len(g.names))
	g.names = append(g.names, name)
	g.byName[name] = id
	g.out = append(g.out, nil)
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
	if g.find(from, to) != nil {
		return fmt.Errorf("%w: %s->%s", ErrDuplicateLink, g.Name(from), g.Name(to))
	}
	g.out[from] = append(g.out[from], Link{From: from, To: to, Cap: cap, Delay: delay})
	g.numLinks++
	g.edits++
	return nil
}

// find returns the stored link (from, to), or nil. The pointer is into
// from's adjacency row and is good until the next AddLink or RemoveLink.
func (g *Graph) find(from, to NodeID) *Link {
	if !g.HasNode(from) {
		return nil
	}
	row := g.out[from]
	for i := range row {
		if row[i].To == to {
			return &row[i]
		}
	}
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
	if g.find(from, to) == nil {
		return false
	}
	g.out[from] = slices.DeleteFunc(g.out[from], func(l Link) bool { return l.To == to })
	g.numLinks--
	g.edits++
	return true
}

// SetCapacity updates the capacity of an existing link.
func (g *Graph) SetCapacity(from, to NodeID, cap Capacity) error {
	l := g.find(from, to)
	if l == nil {
		return fmt.Errorf("graph: no link %s->%s", g.Name(from), g.Name(to))
	}
	if cap <= 0 {
		return fmt.Errorf("graph: non-positive capacity %d", cap)
	}
	l.Cap = cap
	g.edits++
	return nil
}

// SetDelay updates the delay of an existing link.
func (g *Graph) SetDelay(from, to NodeID, delay Delay) error {
	l := g.find(from, to)
	if l == nil {
		return fmt.Errorf("graph: no link %s->%s", g.Name(from), g.Name(to))
	}
	if delay < 0 {
		return fmt.Errorf("graph: negative delay %d", delay)
	}
	l.Delay = delay
	g.edits++
	return nil
}

// Occupy takes d units of the link (from, to) away: it lowers the
// capacity to left = Cap - d, and removes the link when nothing is left
// (a zero-capacity link is not representable). This is the residual rule
// — what remains of a link for a planner once others hold d of it. ok is
// false, and g unchanged, when there is no such link.
func (g *Graph) Occupy(from, to NodeID, d Capacity) (left Capacity, ok bool) {
	l := g.find(from, to)
	if l == nil {
		return 0, false
	}
	left = l.Cap - d
	if left <= 0 {
		g.RemoveLink(from, to)
		return left, true
	}
	l.Cap = left
	g.edits++
	return left, true
}

// Edits returns how many mutations (AddNode, AddLink, RemoveLink,
// SetCapacity, SetDelay, Occupy) g has seen. Anything derived from g
// stays valid for as long as it holds the same *Graph and the count it was
// built at.
func (g *Graph) Edits() uint64 { return g.edits }

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.names) }

// NumLinks returns the number of links.
func (g *Graph) NumLinks() int { return g.numLinks }

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
	if l := g.find(from, to); l != nil {
		return *l, true
	}
	return Link{}, false
}

// Out returns the outgoing links of v. The slice must not be modified.
func (g *Graph) Out(v NodeID) []Link {
	if !g.HasNode(v) {
		return nil
	}
	return g.out[v]
}

// Links returns a copy of all links, ordered deterministically by
// (from, to).
func (g *Graph) Links() []Link {
	ls := slices.Grow([]Link(nil), g.numLinks)
	for _, row := range g.out { // out[v] holds From == v, so rows arrive in From order
		lo := len(ls)
		ls = append(ls, row...)
		slices.SortFunc(ls[lo:], func(a, b Link) int { return cmp.Compare(a.To, b.To) })
	}
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
