package graph

import (
	"encoding/json"
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
	before := g.Edits()
	for _, pair := range [][2]NodeID{{ids[0], ids[1]}, {ids[2], ids[0]}, {Invalid, ids[0]}, {ids[0], 99}, {99, ids[0]}} {
		if left, ok := g.Occupy(pair[0], pair[1], 1); ok || left != 0 {
			t.Fatalf("Occupy(%v) of a missing link = (%d, %v)", pair, left, ok)
		}
	}
	if g.Edits() != before {
		t.Fatalf("Occupy of missing links moved Edits %d -> %d", before, g.Edits())
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

// TestCloneIndependence: a clone shares nothing with its original —
// AddLink (an append into an adjacency row that sits in one backing array
// with its neighbours), RemoveLink, SetCapacity, SetDelay and AddNode on
// either never show through the other, whichever side mutates.
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
	if p.PrevHop(ids[1]) != ids[0] {
		t.Fatalf("PrevHop(v1) = %d", p.PrevHop(ids[1]))
	}
	if p.PrevHop(ids[0]) != Invalid {
		t.Fatal("PrevHop(src) should be Invalid")
	}
	if got := p.Delay(g); got != 4 {
		t.Fatalf("Delay = %d, want 4", got)
	}
	if got := p.SuffixDelay(g, ids[2]); got != 2 {
		t.Fatalf("SuffixDelay(v2) = %d, want 2", got)
	}
	if got := p.SuffixDelay(g, NodeID(77)); got != -1 {
		t.Fatalf("SuffixDelay(absent) = %d, want -1", got)
	}
	if got := p.MinCapacity(g); got != 10 {
		t.Fatalf("MinCapacity = %d, want 10", got)
	}
	if got := len(p.Links(g)); got != 4 {
		t.Fatalf("Links count = %d, want 4", got)
	}
	if !p.Equal(p.Clone()) {
		t.Fatal("Clone not Equal")
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

// TestEditsCountsEveryMutation: Edits moves on each of the six mutators
// (and on a decode over an existing graph), and on nothing else — failed
// or no-op calls and reads leave it alone.
func TestEditsCountsEveryMutation(t *testing.T) {
	g, ids := buildLine(t, 3) // 3 AddNode + 2 AddLink
	step := func(what string, moved bool, f func()) {
		t.Helper()
		before := g.Edits()
		f()
		if got := g.Edits() != before; got != moved {
			t.Fatalf("%s: Edits %d -> %d, moved = %v, want %v", what, before, g.Edits(), got, moved)
		}
	}
	if g.Edits() != 5 {
		t.Fatalf("Edits after 3 nodes + 2 links = %d, want 5", g.Edits())
	}
	step("AddNode new", true, func() { g.AddNode("extra") })
	step("AddNode existing", false, func() { g.AddNode("extra") })
	step("AddLink", true, func() { g.MustAddLink(ids[2], ids[0], 5, 1) })
	step("AddLink duplicate", false, func() { _ = g.AddLink(ids[2], ids[0], 5, 1) })
	step("SetCapacity", true, func() { _ = g.SetCapacity(ids[0], ids[1], 7) })
	step("SetCapacity missing link", false, func() { _ = g.SetCapacity(ids[0], ids[2], 7) })
	step("SetDelay", true, func() { _ = g.SetDelay(ids[0], ids[1], 3) })
	step("SetDelay negative", false, func() { _ = g.SetDelay(ids[0], ids[1], -1) })
	step("Occupy partial", true, func() { g.Occupy(ids[2], ids[0], 2) })
	step("Occupy missing link", false, func() { g.Occupy(ids[0], ids[2], 2) })
	step("RemoveLink", true, func() { g.RemoveLink(ids[2], ids[0]) })
	step("RemoveLink missing", false, func() { g.RemoveLink(ids[2], ids[0]) })
	step("Occupy to zero", true, func() { g.Occupy(ids[1], ids[2], 10) })
	step("reads", false, func() { _, _, _ = g.Links(), g.Clone(), g.String() })
	if c := g.Clone(); c.Edits() != g.Edits() {
		t.Fatalf("Clone at edit %d, source at %d", c.Edits(), g.Edits())
	}
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	step("UnmarshalJSON over a live graph", true, func() {
		if err := json.Unmarshal(data, g); err != nil {
			t.Fatal(err)
		}
	})
}
