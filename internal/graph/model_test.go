package graph

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// graphModel is the obvious graph: a map from node pair to link, the
// insertion order of each node's out-links (what Out must preserve), and
// the number of calls that succeeded.
type graphModel struct {
	names []string
	links map[[2]NodeID]Link
	rows  [][]NodeID // rows[v] = To of v's out-links, oldest first
	edits uint64
}

func (m *graphModel) has(v NodeID) bool { return v >= 0 && int(v) < len(m.names) }

func (m *graphModel) clone() *graphModel {
	c := &graphModel{names: slices.Clone(m.names), links: maps.Clone(m.links), edits: m.edits}
	for _, r := range m.rows {
		c.rows = append(c.rows, slices.Clone(r))
	}
	return c
}

func (m *graphModel) remove(k [2]NodeID) {
	delete(m.links, k)
	m.rows[k[0]] = slices.DeleteFunc(m.rows[k[0]], func(to NodeID) bool { return to == k[1] })
}

// check compares every read accessor of g with the model, probing one id
// below and one above the valid range as well.
func (m *graphModel) check(t *testing.T, g *Graph, step string) {
	t.Helper()
	n := NodeID(len(m.names))
	if g.NumNodes() != int(n) || g.NumLinks() != len(m.links) {
		t.Fatalf("%s: n=%d m=%d, model n=%d m=%d", step, g.NumNodes(), g.NumLinks(), n, len(m.links))
	}
	var sorted []Link
	for from := NodeID(-1); from <= n; from++ {
		var row []Link
		if m.has(from) {
			for _, to := range m.rows[from] {
				row = append(row, m.links[[2]NodeID{from, to}])
			}
		}
		if got := g.Out(from); !slices.Equal(got, row) {
			t.Fatalf("%s: Out(%d) = %v, model %v", step, from, got, row)
		}
		for to := NodeID(-1); to <= n; to++ {
			want, wantOK := m.links[[2]NodeID{from, to}]
			if got, ok := g.Link(from, to); ok != wantOK || got != want {
				t.Fatalf("%s: Link(%d,%d) = %+v, %v; model %+v, %v", step, from, to, got, ok, want, wantOK)
			}
			if wantOK {
				sorted = append(sorted, want) // from, then to, ascending
			}
		}
	}
	if got := g.Links(); !slices.Equal(got, sorted) {
		t.Fatalf("%s: Links() = %v, model %v", step, got, sorted)
	}
}

// TestGraphAgainstModel drives seeded random edit sequences — duplicates,
// self-loops, unknown ids and non-positive values included — through a
// Graph and the model side by side and compares every accessor after
// every step. A Clone forks the run, and every step edits one of up to
// six live graphs drawn at random, so sources keep mutating after their
// clones, clones of clones mutate, and both sides of one fork take turns;
// every live graph is checked against its own model after every step.
func TestGraphAgainstModel(t *testing.T) {
	type side struct {
		g      *Graph
		m      *graphModel
		depth  int  // clones between this graph and the run's first
		forked bool // cloned from at least once
		what   string
	}
	var afterFork, deep int // successful edits of a forked source, of a clone of a clone
	for seed := int64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		first := &side{g: New(), m: &graphModel{links: make(map[[2]NodeID]Link)}, what: "first graph"}
		if seed%2 == 0 {
			first.g = &Graph{} // the zero value is a ready graph too
		}
		live := []*side{first}
		for i := 0; i < 300; i++ {
			cur := live[rng.Intn(len(live))]
			g, m := cur.g, cur.m
			editsBefore := m.edits
			// id draws from one below to one above the valid range.
			id := func() NodeID { return NodeID(rng.Intn(len(m.names)+2) - 1) }
			from, to := id(), id()
			k := [2]NodeID{from, to}
			old, exists := m.links[k]
			var step string
			switch op := rng.Intn(10); op {
			case 0, 1:
				name := fmt.Sprintf("n%d", rng.Intn(8))
				step = fmt.Sprintf("AddNode(%s)", name)
				want := NodeID(slices.Index(m.names, name))
				if want == Invalid {
					want = NodeID(len(m.names))
					m.names, m.rows = append(m.names, name), append(m.rows, nil)
					m.edits++
				}
				if got := g.AddNode(name); got != want || g.Lookup(name) != want || g.Name(want) != name {
					t.Fatalf("seed %d step %d: %s = %d, model %d", seed, i, step, got, want)
				}
			case 2, 3, 4:
				cap, delay := Capacity(rng.Intn(12)-1), Delay(rng.Intn(6)-1)
				step = fmt.Sprintf("AddLink(%d,%d,%d,%d)", from, to, cap, delay)
				wantOK := m.has(from) && m.has(to) && from != to && cap > 0 && delay >= 0 && !exists
				if wantOK {
					m.links[k] = Link{From: from, To: to, Cap: cap, Delay: delay}
					m.rows[from] = append(m.rows[from], to)
					m.edits++
				}
				if err := g.AddLink(from, to, cap, delay); (err == nil) != wantOK {
					t.Fatalf("seed %d step %d: %s: err = %v, model ok = %v", seed, i, step, err, wantOK)
				}
			case 5:
				step = fmt.Sprintf("RemoveLink(%d,%d)", from, to)
				if exists {
					m.remove(k)
					m.edits++
				}
				if got := g.RemoveLink(from, to); got != exists {
					t.Fatalf("seed %d step %d: %s = %v, model %v", seed, i, step, got, exists)
				}
			case 6:
				cap := Capacity(rng.Intn(12) - 1)
				step = fmt.Sprintf("SetCapacity(%d,%d,%d)", from, to, cap)
				wantOK := exists && cap > 0
				if wantOK {
					old.Cap = cap
					m.links[k] = old
					m.edits++
				}
				if err := g.SetCapacity(from, to, cap); (err == nil) != wantOK {
					t.Fatalf("seed %d step %d: %s: err = %v, model ok = %v", seed, i, step, err, wantOK)
				}
			case 7:
				delay := Delay(rng.Intn(6) - 1)
				step = fmt.Sprintf("SetDelay(%d,%d,%d)", from, to, delay)
				wantOK := exists && delay >= 0
				if wantOK {
					old.Delay = delay
					m.links[k] = old
					m.edits++
				}
				if err := g.SetDelay(from, to, delay); (err == nil) != wantOK {
					t.Fatalf("seed %d step %d: %s: err = %v, model ok = %v", seed, i, step, err, wantOK)
				}
			case 8:
				d := Capacity(rng.Intn(12))
				step = fmt.Sprintf("Occupy(%d,%d,%d)", from, to, d)
				var wantLeft Capacity
				if exists {
					wantLeft = old.Cap - d
					if old.Cap = wantLeft; wantLeft <= 0 {
						m.remove(k)
					} else {
						m.links[k] = old
					}
					m.edits++
				}
				if left, ok := g.Occupy(from, to, d); ok != exists || left != wantLeft {
					t.Fatalf("seed %d step %d: %s = (%d, %v), model (%d, %v)", seed, i, step, left, ok, wantLeft, exists)
				}
			case 9:
				step = fmt.Sprintf("Clone of the %s", cur.what)
				c := &side{g: g.Clone(), m: m.clone(), depth: cur.depth + 1, what: fmt.Sprintf("clone %d deep, taken at step %d", cur.depth+1, i)}
				cur.forked = true
				if len(live) < 6 {
					live = append(live, c)
				} else {
					live[rng.Intn(len(live))] = c // a dropped graph leaves its clones live
				}
			}
			if m.edits != editsBefore {
				if cur.forked {
					afterFork++
				}
				if cur.depth >= 2 {
					deep++
				}
			}
			for _, s := range live {
				s.m.check(t, s.g, fmt.Sprintf("seed %d step %d: %s: %s", seed, i, step, s.what))
			}
		}
	}
	// Too tame to show sharing bugs if few edits land on a source after
	// its clone, or on a clone of a clone.
	if afterFork < 200 || deep < 200 {
		t.Fatalf("edits after a fork %d, on clones of clones %d; want at least 200 each", afterFork, deep)
	}
	t.Logf("edits after a fork %d, on clones of clones %d", afterFork, deep)
}
