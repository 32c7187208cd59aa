package dynflow_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/chronus-sdn/chronus/internal/core"
	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/graph"
	"github.com/chronus-sdn/chronus/internal/topo"
)

// embeddedPods draws sixteen random pods — six to fourteen switches, demand
// 1–4, paper-tight or mostly slack links, so feasible and infeasible ones —
// and re-roots them into one merged graph. own[i] is pod i on its own
// graph, on[i] the same pod inside the merged one, remap[i] the id map
// between them.
func embeddedPods(rng *rand.Rand) (own, on []*dynflow.Instance, remap [][]graph.NodeID) {
	g := graph.New()
	for p := 0; p < 16; p++ {
		params := topo.DefaultRandomParams(6 + rng.Intn(9))
		params.Demand = graph.Capacity(1 + rng.Intn(4))
		if rng.Intn(2) == 0 {
			params.TightFraction, params.MaxDelay = 0.25, 3
		}
		in := topo.RandomInstance(rng, params)
		e, m := topo.Embed(g, in, fmt.Sprintf("p%d.", p))
		own, on, remap = append(own, in), append(on, e), append(remap, m)
	}
	return own, on, remap
}

// remapReport rewrites r's switch ids through remap.
func remapReport(r *dynflow.Report, remap []graph.NodeID) *dynflow.Report {
	out := *r
	out.Congestion, out.Loops, out.Blackholes = nil, nil, nil
	for _, ev := range r.Congestion {
		ev.Link.From, ev.Link.To = remap[ev.Link.From], remap[ev.Link.To]
		out.Congestion = append(out.Congestion, ev)
	}
	for _, ev := range r.Loops {
		ev.At = remap[ev.At]
		out.Loops = append(out.Loops, ev)
	}
	for _, ev := range r.Blackholes {
		ev.At = remap[ev.At]
		out.Blackholes = append(out.Blackholes, ev)
	}
	return &out
}

// TestValidateEmbeddingInvariance: the validator and the slack certificate
// touch only a flow's footprint, so a pod validates the same on its own
// graph and re-rooted into a sixteen-pod one: equal reports (after the id
// remap; pods keep their relative id order, so the congestion order too)
// for the greedy schedule and random ones, clean or not, and equal
// DelaySlack values for the clean ones.
func TestValidateEmbeddingInvariance(t *testing.T) {
	var pods, clean, dirty int
	for seed := int64(0); seed < 13; seed++ {
		rng := rand.New(rand.NewSource(seed))
		own, on, remap := embeddedPods(rng)
		for p := range own {
			pods++
			for trial := 0; trial < 4; trial++ {
				s := dynflow.NewSchedule(dynflow.Tick(rng.Intn(5)))
				se := dynflow.NewSchedule(s.Start)
				var vs, vse []graph.NodeID
				var greedy *dynflow.Schedule
				if trial == 0 {
					if res, err := core.Greedy(own[p], core.Options{Start: s.Start}); err == nil {
						greedy = res.Schedule
					}
				}
				for _, v := range own[p].UpdateSet() {
					at := s.Start + dynflow.Tick(rng.Intn(1+8*trial))
					if greedy != nil {
						at = greedy.Times[v]
					} else if rng.Intn(6) == 0 {
						continue // left unscheduled: loops or blackholes
					}
					s.Set(v, at)
					se.Set(remap[p][v], at)
					vs, vse = append(vs, v), append(vse, remap[p][v])
				}
				want, got := remapReport(dynflow.Validate(own[p], s), remap[p]), dynflow.Validate(on[p], se)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d pod %d: report differs once embedded\n got %s\nwant %s", seed, p, got.Summary(), want.Summary())
				}
				if !want.OK() {
					dirty++
					continue
				}
				clean++
				if ws, gs := dynflow.DelaySlack(own[p], s, vs, 40), dynflow.DelaySlack(on[p], se, vse, 40); !reflect.DeepEqual(gs, ws) {
					t.Fatalf("seed %d pod %d: slack %v once embedded, %v on the pod's own graph", seed, p, gs, ws)
				}
			}
		}
	}
	if pods < 200 || clean < 100 || dirty < 100 {
		t.Fatalf("corpus too small: %d pods, %d clean and %d violating schedules", pods, clean, dirty)
	}
}

// TestValidateSeesFootprintChanges: the tracer is cached per (graph state,
// paths), so after a first Validate the next one must see swapped paths, a
// changed capacity and a removed link on the footprint — each checked
// against a fresh instance, which has no cache to go stale.
func TestValidateSeesFootprintChanges(t *testing.T) {
	_, on, _ := embeddedPods(rand.New(rand.NewSource(42)))
	for p, in := range on {
		fresh := func(s *dynflow.Schedule) *dynflow.Report {
			return dynflow.Validate(&dynflow.Instance{G: in.G, Demand: in.Demand, Init: in.Init, Fin: in.Fin}, s)
		}
		flip := func() *dynflow.Schedule {
			s := dynflow.NewSchedule(0)
			for i, v := range in.UpdateSet() {
				s.Set(v, dynflow.Tick(i%3))
			}
			return s
		}
		check := func(what string) {
			t.Helper()
			s := flip()
			if got, want := dynflow.Validate(in, s), fresh(s); !reflect.DeepEqual(got, want) {
				t.Fatalf("pod %d after %s: cached %s, fresh %s", p, what, got.Summary(), want.Summary())
			}
		}
		check("the first validation")

		in.Init, in.Fin = in.Fin, in.Init
		check("swapping the paths")

		// The first final-path link the initial path does not use.
		var from, to graph.NodeID = graph.Invalid, graph.Invalid
		for i := 1; i < len(in.Fin); i++ {
			if in.Init.NextHop(in.Fin[i-1]) != in.Fin[i] {
				from, to = in.Fin[i-1], in.Fin[i]
				break
			}
		}
		if from == graph.Invalid {
			t.Fatalf("pod %d: the paths share every link", p)
		}
		if err := in.G.SetCapacity(from, to, 1); err != nil {
			t.Fatal(err)
		}
		if l, _ := in.G.Link(in.Init[0], in.Init[1]); l.Cap > 1 {
			if err := in.G.SetCapacity(in.Init[0], in.Init[1], l.Cap-1); err != nil {
				t.Fatal(err)
			}
		}
		check("SetCapacity on footprint links")

		in.G.RemoveLink(from, to)
		check("RemoveLink on a final-path link")
		if r := dynflow.Validate(in, flip()); len(r.Blackholes) == 0 {
			t.Fatalf("pod %d: final path cut at %d->%d, no blackhole reported: %s", p, from, to, r.Summary())
		}
	}
}
