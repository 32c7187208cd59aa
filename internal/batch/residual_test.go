package batch_test

import (
	"fmt"
	"slices"
	"testing"

	"github.com/chronus-sdn/chronus/internal/admit"
	"github.com/chronus-sdn/chronus/internal/batch"
	"github.com/chronus-sdn/chronus/internal/graph"
)

// TestResidualBuildersAgree: what the other flows hold is taken off a
// planner's graph by one rule, graph.Occupy, whether the holds come from
// a batch's steady states or from the admission ledger — a partly held
// link keeps the rest, a link two holds share loses both, a link held
// whole is gone from both residuals, and neither touches the original.
func TestResidualBuildersAgree(t *testing.T) {
	g := graph.New()
	ids := g.AddNodes("a", "b", "c", "d", "e")
	a, b, c, d, e := ids[0], ids[1], ids[2], ids[3], ids[4]
	g.MustAddLink(a, c, 9, 2) // unheld, ahead of a->b in a's row
	g.MustAddLink(a, b, 10, 1)
	g.MustAddLink(b, c, 6, 1)
	g.MustAddLink(c, d, 7, 3)
	g.MustAddLink(d, e, 4, 1)
	g.MustAddLink(e, a, 5, 1)
	describe := func(g *graph.Graph) string {
		s := fmt.Sprint(g, g.Links())
		for _, v := range g.Nodes() {
			s += fmt.Sprint(" ", g.Name(v), g.Out(v))
		}
		return s
	}
	before := describe(g)

	// Flow 0 migrates; the others sit on their initial paths meanwhile.
	flows := []batch.Flow{
		{Name: "mover", Demand: 1, Init: graph.Path{a, c}, Fin: graph.Path{a, c}},
		{Name: "part", Demand: 4, Init: graph.Path{a, b, c}},   // a->b 10-4, b->c 6-4
		{Name: "shared", Demand: 2, Init: graph.Path{b, c, d}}, // b->c down to 0, c->d 7-2
		{Name: "whole", Demand: 4, Init: graph.Path{c, d, e}},  // c->d 5-4, d->e 4-4
		{Name: "elsewhere", Demand: 5, Init: graph.Path{e, a}}, // e->a 5-5
	}
	fromBatch, err := batch.ResidualGraph(g, flows, 0)
	if err != nil {
		t.Fatal(err)
	}
	ledger := admit.NewLedger(g, nil)
	for j, f := range flows[1:] {
		if err := ledger.Reserve(uint64(j+1), admit.FootprintOf(g, f.Init, nil, f.Demand)); err != nil {
			t.Fatal(err)
		}
	}
	fromLedger := ledger.Residual()

	if got, want := describe(fromLedger), describe(fromBatch); got != want {
		t.Fatalf("the two residuals differ:\nledger %s\nbatch  %s", got, want)
	}
	want := []graph.Link{{From: a, To: b, Cap: 6, Delay: 1}, {From: a, To: c, Cap: 9, Delay: 2}, {From: c, To: d, Cap: 1, Delay: 3}}
	if got := fromBatch.Links(); !slices.Equal(got, want) {
		t.Fatalf("residual links = %v, want %v", got, want)
	}
	if after := describe(g); after != before {
		t.Fatalf("building a residual edited the original:\nbefore %s\nafter  %s", before, after)
	}
}
