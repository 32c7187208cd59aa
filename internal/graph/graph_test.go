package graph

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func buildLine(t *testing.T, n int) (*Graph, []NodeID) {
	t.Helper()
	g := New()
	ids := make([]NodeID, n)
	for i := 0; i < n; i++ {
		ids[i] = g.AddNode(nodeName(i))
	}
	for i := 0; i+1 < n; i++ {
		g.MustAddLink(ids[i], ids[i+1], 10, 1)
	}
	return g, ids
}

func nodeName(i int) string {
	return "v" + string(rune('0'+i/10)) + string(rune('0'+i%10))
}

func TestAddNodeIdempotent(t *testing.T) {
	g := New()
	a := g.AddNode("a")
	b := g.AddNode("a")
	if a != b {
		t.Fatalf("AddNode twice gave %d and %d", a, b)
	}
	if g.NumNodes() != 1 {
		t.Fatalf("NumNodes = %d, want 1", g.NumNodes())
	}
}

func TestAddLinkErrors(t *testing.T) {
	g := New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	if err := g.AddLink(a, b, 5, 1); err != nil {
		t.Fatalf("AddLink: %v", err)
	}
	if err := g.AddLink(a, b, 5, 1); err == nil {
		t.Fatal("duplicate link accepted")
	}
	if err := g.AddLink(a, a, 5, 1); err == nil {
		t.Fatal("self loop accepted")
	}
	if err := g.AddLink(a, b+10, 5, 1); err == nil {
		t.Fatal("unknown node accepted")
	}
	if err := g.AddLink(a, b, 0, 1); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if err := g.AddLink(b, a, 5, -1); err == nil {
		t.Fatal("negative delay accepted")
	}
}

func TestLinkLookup(t *testing.T) {
	g, ids := buildLine(t, 3)
	l, ok := g.Link(ids[0], ids[1])
	if !ok {
		t.Fatal("link 0->1 missing")
	}
	if l.Cap != 10 || l.Delay != 1 {
		t.Fatalf("link attrs = %+v", l)
	}
	if _, ok := g.Link(ids[1], ids[0]); ok {
		t.Fatal("reverse link should not exist")
	}
}

func TestRemoveLink(t *testing.T) {
	g, ids := buildLine(t, 4)
	if !g.RemoveLink(ids[1], ids[2]) {
		t.Fatal("RemoveLink returned false for existing link")
	}
	if g.RemoveLink(ids[1], ids[2]) {
		t.Fatal("RemoveLink returned true for missing link")
	}
	if _, ok := g.Link(ids[1], ids[2]); ok {
		t.Fatal("link still present after removal")
	}
	if g.NumLinks() != 2 {
		t.Fatalf("NumLinks = %d, want 2", g.NumLinks())
	}
	// Remaining links still resolvable through every accessor.
	for _, pair := range [][2]NodeID{{ids[0], ids[1]}, {ids[2], ids[3]}} {
		if _, ok := g.Link(pair[0], pair[1]); !ok {
			t.Fatalf("link %v lost after unrelated removal", pair)
		}
	}
	if len(g.Out(ids[1])) != 0 {
		t.Fatalf("Out(v1) = %v, want empty", g.Out(ids[1]))
	}
}

func TestSetCapacityAndDelay(t *testing.T) {
	g, ids := buildLine(t, 2)
	if err := g.SetCapacity(ids[0], ids[1], 42); err != nil {
		t.Fatalf("SetCapacity: %v", err)
	}
	if err := g.SetDelay(ids[0], ids[1], 7); err != nil {
		t.Fatalf("SetDelay: %v", err)
	}
	l, _ := g.Link(ids[0], ids[1])
	if l.Cap != 42 || l.Delay != 7 {
		t.Fatalf("link = %+v", l)
	}
	// Adjacency views must observe the change too.
	if got := g.Out(ids[0])[0]; got.Cap != 42 || got.Delay != 7 {
		t.Fatalf("Out view stale: %+v", got)
	}
	if err := g.SetCapacity(ids[1], ids[0], 1); err == nil {
		t.Fatal("SetCapacity on missing link succeeded")
	}
	if err := g.SetDelay(ids[0], ids[1], -2); err == nil {
		t.Fatal("negative delay accepted")
	}
}

// TestOccupy: the residual rule — a partial hold lowers the capacity, a
// hold of everything (or more) drops the link, a missing link is reported
// and changes nothing.
func TestOccupy(t *testing.T) {
	g, ids := buildLine(t, 3) // caps 10
	if left, ok := g.Occupy(ids[0], ids[1], 4); !ok || left != 6 {
		t.Fatalf("partial Occupy = (%d, %v), want (6, true)", left, ok)
	}
	if l, ok := g.Link(ids[0], ids[1]); !ok || l.Cap != 6 || l.Delay != 1 {
		t.Fatalf("after partial Occupy: link = %+v, %v", l, ok)
	}
	if left, ok := g.Occupy(ids[0], ids[1], 6); !ok || left != 0 {
		t.Fatalf("exact Occupy = (%d, %v), want (0, true)", left, ok)
	}
	if _, ok := g.Link(ids[0], ids[1]); ok || g.NumLinks() != 1 || len(g.Out(ids[0])) != 0 {
		t.Fatalf("exact Occupy kept the link: %v out%v", g, g.Out(ids[0]))
	}
	if left, ok := g.Occupy(ids[1], ids[2], 25); !ok || left != -15 || g.NumLinks() != 0 {
		t.Fatalf("over-Occupy = (%d, %v) on %v, want (-15, true) and no links", left, ok, g)
	}
	before := fmt.Sprint(g, g.Links())
	for _, pair := range [][2]NodeID{{ids[0], ids[1]}, {ids[2], ids[0]}, {Invalid, ids[0]}, {ids[0], 99}, {99, ids[0]}} {
		if left, ok := g.Occupy(pair[0], pair[1], 1); ok || left != 0 {
			t.Fatalf("Occupy(%v) of a missing link = (%d, %v)", pair, left, ok)
		}
	}
	if after := fmt.Sprint(g, g.Links()); after != before {
		t.Fatalf("Occupy of missing links changed the graph: %s -> %s", before, after)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g, ids := buildLine(t, 3)
	c := g.Clone()
	if err := c.SetCapacity(ids[0], ids[1], 99); err != nil {
		t.Fatalf("SetCapacity on clone: %v", err)
	}
	orig, _ := g.Link(ids[0], ids[1])
	if orig.Cap != 10 {
		t.Fatalf("clone mutation leaked into original: cap=%d", orig.Cap)
	}
	c.AddNode("extra")
	if g.NumNodes() != 3 {
		t.Fatalf("clone AddNode leaked: n=%d", g.NumNodes())
	}
}

// TestCloneIndependence: nothing shows through between a clone and its
// original — AddLink (an append into a row both share), RemoveLink,
// SetCapacity, SetDelay and AddNode on either never show through the
// other, whichever side mutates.
func TestCloneIndependence(t *testing.T) {
	describe := func(g *Graph) string {
		var b strings.Builder
		fmt.Fprintf(&b, "%v %v|", g, g.Links())
		for _, v := range g.Nodes() {
			fmt.Fprintf(&b, "%s=%d out%v|", g.Name(v), g.Lookup(g.Name(v)), g.Out(v))
		}
		return b.String()
	}
	mutate := func(t *testing.T, g *Graph, ids []NodeID) {
		t.Helper()
		// Every row grows, so a row that could spill would hit the next.
		for i := range ids {
			if err := g.AddLink(ids[i], ids[(i+2)%len(ids)], 7, 3); err != nil {
				t.Fatal(err)
			}
		}
		if !g.RemoveLink(ids[1], ids[2]) {
			t.Fatal("no link to remove")
		}
		if err := g.SetCapacity(ids[0], ids[1], 99); err != nil {
			t.Fatal(err)
		}
		if err := g.SetDelay(ids[2], ids[3], 9); err != nil {
			t.Fatal(err)
		}
		g.MustAddLink(g.AddNode("extra"), ids[0], 1, 1)
	}
	for _, side := range []string{"clone", "original"} {
		g, ids := buildLine(t, 5)
		c := g.Clone()
		if describe(c) != describe(g) {
			t.Fatalf("clone differs from its original:\n%s\n%s", describe(c), describe(g))
		}
		mutated, kept := c, g
		if side == "original" {
			mutated, kept = g, c
		}
		before := describe(kept)
		mutate(t, mutated, ids)
		if after := describe(kept); after != before {
			t.Fatalf("mutating the %s showed through:\nbefore %s\nafter  %s", side, before, after)
		}
		if describe(mutated) == before {
			t.Fatal("fixture: the mutations changed nothing")
		}
		// Both stay usable and consistent on their own.
		mutate(t, kept, ids)
		if describe(kept) != describe(mutated) {
			t.Fatalf("the same edits gave different graphs:\n%s\n%s", describe(kept), describe(mutated))
		}
	}
}

// TestCloneSharedNamesConcurrent: clones share the name tables until one
// adds a node, so goroutines cloning one graph and growing their clones
// each see only their own names. CI runs it under -race.
func TestCloneSharedNamesConcurrent(t *testing.T) {
	g, ids := buildLine(t, 4)
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func() {
			c := g.Clone()
			for i := 0; i < 50; i++ {
				name := fmt.Sprintf("w%d.%d", w, i)
				if id := c.AddNode(name); c.Lookup(name) != id || c.Name(id) != name {
					errs <- fmt.Errorf("clone %d: %s -> %d, named %s", w, name, c.Lookup(name), c.Name(id))
					return
				}
				c = c.Clone()
			}
			if c.Lookup(g.Name(ids[2])) != ids[2] || c.Lookup("w9.0") != Invalid {
				errs <- fmt.Errorf("clone %d sees the wrong names", w)
				return
			}
			errs <- nil
		}()
	}
	for w := 0; w < 8; w++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if g.NumNodes() != 4 || g.Lookup("w0.0") != Invalid {
		t.Fatalf("a clone's nodes showed through: %v", g)
	}
}

// TestCloneRowsConcurrent: goroutines clone one graph while each edits
// its clone, a clone of that clone, and the clone again after the second
// fork, on rows of both bitset words (70 nodes). Each must read exactly
// what the same edits give on a freshly built graph, and the shared
// source must not move. CI runs it under -race.
func TestCloneRowsConcurrent(t *testing.T) {
	g, ids := buildLine(t, 70)
	for i := 0; i+2 < len(ids); i += 3 {
		g.MustAddLink(ids[i+2], ids[i], 5, 2)
	}
	before := fmt.Sprint(g.Links())
	// first edits rows of worker w; second and third run on the two sides
	// of the fork that follows.
	first := func(x *Graph, w int) {
		x.Occupy(ids[w], ids[w+1], Capacity(w+1))
		x.SetDelay(ids[w+62], ids[w+63], 3)
		x.MustAddLink(ids[w+1], ids[w+60], 7, 1)
	}
	second := func(x *Graph, w int) {
		x.Occupy(ids[w], ids[w+1], 10) // the whole link: the row shrinks
		x.RemoveLink(ids[67], ids[68])
		x.MustAddLink(ids[w+60], ids[w+3], 1, 1)
	}
	third := func(x *Graph, w int) {
		x.SetCapacity(ids[w+1], ids[w+2], 99)
		x.RemoveLink(ids[w+2], ids[w])
	}
	const workers = 6
	want := make([][2]string, workers)
	for w := range want {
		x, _ := buildLine(t, 70)
		for i := 0; i+2 < len(ids); i += 3 {
			x.MustAddLink(ids[i+2], ids[i], 5, 2)
		}
		first(x, w)
		y := x.Clone()
		second(y, w)
		third(x, w)
		want[w] = [2]string{fmt.Sprint(x.Links()), fmt.Sprint(y.Links())}
	}
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			for round := 0; round < 30; round++ {
				c := g.Clone()
				first(c, w)
				cc := c.Clone()
				second(cc, w)
				third(c, w)
				if got := fmt.Sprint(c.Links()); got != want[w][0] {
					errs <- fmt.Errorf("worker %d round %d: clone reads %s, want %s", w, round, got, want[w][0])
					return
				}
				if got := fmt.Sprint(cc.Links()); got != want[w][1] {
					errs <- fmt.Errorf("worker %d round %d: clone of the clone reads %s, want %s", w, round, got, want[w][1])
					return
				}
			}
			errs <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if after := fmt.Sprint(g.Links()); after != before {
		t.Fatalf("the shared source moved:\nbefore %s\nafter  %s", before, after)
	}
}

func TestPathValidate(t *testing.T) {
	g, ids := buildLine(t, 4)
	p := Path{ids[0], ids[1], ids[2], ids[3]}
	if err := p.Validate(g); err != nil {
		t.Fatalf("valid path rejected: %v", err)
	}
	if err := (Path{ids[0]}).Validate(g); err == nil {
		t.Fatal("single-node path accepted")
	}
	if err := (Path{ids[0], ids[2]}).Validate(g); err == nil {
		t.Fatal("disconnected hop accepted")
	}
	if err := (Path{ids[0], ids[1], ids[0]}).Validate(g); err == nil {
		t.Fatal("non-simple path accepted")
	}
}

// TestPathValidateNamesFirstRepeat: on rings of 5, 64, 65 and 600 nodes
// (the last past the on-stack bitset) a walk that goes round more than
// once is refused naming the first node seen twice and a simple path is
// accepted; validating a 64-node simple path allocates nothing.
func TestPathValidateNamesFirstRepeat(t *testing.T) {
	for _, n := range []int{5, 64, 65, 600} {
		g := New()
		for i := 0; i < n; i++ {
			g.AddNode(fmt.Sprintf("r%d", i))
		}
		for i := 0; i < n; i++ {
			g.MustAddLink(NodeID(i), NodeID((i+1)%n), 1, 1)
		}
		for _, start := range []int{0, n / 2, n - 1} {
			var walk Path
			for k := 0; k < n+3; k++ {
				walk = append(walk, NodeID((start+k)%n))
			}
			want := fmt.Sprintf("graph: path is not simple: node r%d repeats", start)
			if err := walk.Validate(g); err == nil || err.Error() != want || !errors.Is(err, ErrNotSimple) {
				t.Fatalf("n=%d start %d: %v, want %q", n, start, err, want)
			}
			if err := walk[:n].Validate(g); err != nil {
				t.Fatalf("n=%d start %d: simple path refused: %v", n, start, err)
			}
			if n == 64 {
				if a := testing.AllocsPerRun(20, func() { _ = walk[:n].Validate(g) }); a != 0 {
					t.Fatalf("Validate allocated %.1f times on a %d-node graph", a, n)
				}
			}
		}
	}
}

func TestPathAccessors(t *testing.T) {
	g, ids := buildLine(t, 5)
	p := Path{ids[0], ids[1], ids[2], ids[3], ids[4]}
	if p.Source() != ids[0] || p.Dest() != ids[4] {
		t.Fatalf("source/dest = %d/%d", p.Source(), p.Dest())
	}
	if p.NextHop(ids[1]) != ids[2] {
		t.Fatalf("NextHop(v1) = %d", p.NextHop(ids[1]))
	}
	if p.NextHop(ids[4]) != Invalid {
		t.Fatal("NextHop(dest) should be Invalid")
	}
	if got := p.Delay(g); got != 4 {
		t.Fatalf("Delay = %d, want 4", got)
	}
	if got := p.MinCapacity(g); got != 10 {
		t.Fatalf("MinCapacity = %d, want 10", got)
	}
	if !p.Equal(append(Path(nil), p...)) {
		t.Fatal("copy not Equal")
	}
	if p.Equal(p[:3]) {
		t.Fatal("different lengths Equal")
	}
}

func TestUnionNodes(t *testing.T) {
	p := Path{0, 1, 2, 3}
	q := Path{0, 3, 2, 5}
	got := UnionNodes(p, q)
	want := []NodeID{0, 1, 2, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("UnionNodes = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("UnionNodes = %v, want %v", got, want)
		}
	}
}

func TestShortestPathLine(t *testing.T) {
	g, ids := buildLine(t, 6)
	p := ShortestPath(g, ids[0], ids[5])
	if p == nil || len(p) != 6 {
		t.Fatalf("ShortestPath = %v", p)
	}
	if ShortestPath(g, ids[5], ids[0]) != nil {
		t.Fatal("found path against link direction")
	}
}

func TestShortestPathPrefersLowDelay(t *testing.T) {
	g := New()
	a, b, c, d := g.AddNode("a"), g.AddNode("b"), g.AddNode("c"), g.AddNode("d")
	g.MustAddLink(a, b, 1, 1)
	g.MustAddLink(b, d, 1, 1)
	g.MustAddLink(a, c, 1, 5)
	g.MustAddLink(c, d, 1, 5)
	p := ShortestPath(g, a, d)
	if !p.Equal(Path{a, b, d}) {
		t.Fatalf("ShortestPath = %v, want a->b->d", p)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g, ids := buildLine(t, 4)
	g.MustAddLink(ids[3], ids[0], 7, 3)
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Graph
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.NumNodes() != g.NumNodes() || back.NumLinks() != g.NumLinks() {
		t.Fatalf("round trip changed size: %v vs %v", &back, g)
	}
	for _, l := range g.Links() {
		bl, ok := back.Link(back.Lookup(g.Name(l.From)), back.Lookup(g.Name(l.To)))
		if !ok || bl.Cap != l.Cap || bl.Delay != l.Delay {
			t.Fatalf("link %s->%s lost in round trip", g.Name(l.From), g.Name(l.To))
		}
	}
}

func TestPathByNames(t *testing.T) {
	g, _ := buildLine(t, 3)
	p, err := g.PathByNames("v00", "v01", "v02")
	if err != nil {
		t.Fatalf("PathByNames: %v", err)
	}
	if err := p.Validate(g); err != nil {
		t.Fatalf("resolved path invalid: %v", err)
	}
	if _, err := g.PathByNames("v00", "nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestDOTHighlightsPaths(t *testing.T) {
	g, ids := buildLine(t, 3)
	g.MustAddLink(ids[0], ids[2], 10, 1)
	dot := g.DOT(Path{ids[0], ids[1], ids[2]}, Path{ids[0], ids[2]})
	for _, want := range []string{"digraph", "blue", "dashed"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, dot)
		}
	}
}

// TestShortestPathProperty checks on random DAG-ish graphs that the returned
// path validates and connects src to dst.
func TestShortestPathProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		g := New()
		ids := make([]NodeID, n)
		for i := range ids {
			ids[i] = g.AddNode(nodeName(i))
		}
		// Guarantee a spine, then add random forward links.
		for i := 0; i+1 < n; i++ {
			g.MustAddLink(ids[i], ids[i+1], 1, Delay(1+rng.Intn(4)))
		}
		for k := 0; k < n; k++ {
			i := rng.Intn(n - 1)
			j := i + 1 + rng.Intn(n-i-1)
			if _, ok := g.Link(ids[i], ids[j]); !ok {
				g.MustAddLink(ids[i], ids[j], 1, Delay(1+rng.Intn(4)))
			}
		}
		p := ShortestPath(g, ids[0], ids[n-1])
		if p == nil {
			return false
		}
		if p.Source() != ids[0] || p.Dest() != ids[n-1] {
			return false
		}
		return p.Validate(g) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
