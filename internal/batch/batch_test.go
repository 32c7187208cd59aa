package batch

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/graph"
	"github.com/chronus-sdn/chronus/internal/scheme"
	"github.com/chronus-sdn/chronus/internal/topo"
)

// twoFlowNet builds a diamond where two flows swap sides: f1 moves from the
// top route to the bottom, f2 from the bottom to the top. Each route has
// capacity for one flow only, so the updates must be sequenced.
func twoFlowNet(t *testing.T) (*graph.Graph, []Flow) {
	t.Helper()
	g := graph.New()
	ids := g.AddNodes("s1", "s2", "t1", "t2", "up", "dn")
	s1, s2, t1, t2, up, dn := ids[0], ids[1], ids[2], ids[3], ids[4], ids[5]
	// Shared middle routes with capacity 1 each.
	g.MustAddLink(up, dn, 9, 1) // unrelated cross link keeps the graph interesting
	g.MustAddLink(s1, up, 1, 1)
	g.MustAddLink(s2, up, 1, 1)
	g.MustAddLink(s1, dn, 1, 1)
	g.MustAddLink(s2, dn, 1, 1)
	g.MustAddLink(up, t1, 1, 1)
	g.MustAddLink(up, t2, 1, 1)
	g.MustAddLink(dn, t1, 1, 1)
	g.MustAddLink(dn, t2, 1, 1)
	flows := []Flow{
		{Name: "f1", Demand: 1, Init: graph.Path{s1, up, t1}, Fin: graph.Path{s1, dn, t1}},
		{Name: "f2", Demand: 1, Init: graph.Path{s2, dn, t2}, Fin: graph.Path{s2, up, t2}},
	}
	return g, flows
}

func TestBatchTwoFlowSwap(t *testing.T) {
	g, flows := twoFlowNet(t)
	plan, err := Solve(g, flows, Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if len(plan.Updates) != 2 {
		t.Fatalf("updates = %d", len(plan.Updates))
	}
	if !plan.Report.OK() {
		t.Fatalf("joint report: %s", plan.Report.Summary())
	}
	// Sequential spacing: the second flow starts after the first drains.
	first, second := plan.Updates[0], plan.Updates[1]
	if second.S.Start <= first.S.End() {
		t.Fatalf("second flow starts at %d, before first ends at %d", second.S.Start, first.S.End())
	}
	if plan.Makespan(0) <= 0 {
		t.Fatal("zero makespan for a two-flow batch")
	}
}

func TestBatchRejectsOversubscribedSteadyState(t *testing.T) {
	g, flows := twoFlowNet(t)
	// Both flows target the bottom route: the final configuration needs 2
	// units on (dn, t*) adjacent links... make them collide on (s-side):
	flows[1].Fin = graph.Path{g.Lookup("s2"), g.Lookup("dn"), g.Lookup("t2")}
	flows[0].Fin = graph.Path{g.Lookup("s1"), g.Lookup("dn"), g.Lookup("t1")}
	// Saturate one shared link by pointing both finals through (dn,t1).
	flows[1].Fin = graph.Path{g.Lookup("s2"), g.Lookup("dn"), g.Lookup("t1")}
	// Distinct destinations are required by Instance validation, so force
	// the collision on a shared middle link instead: capacity 1 on (s1,dn)
	// cannot carry both... build the direct case:
	gg := graph.New()
	ids := gg.AddNodes("a", "b", "m", "n", "x", "y")
	a, b, m, n, x, y := ids[0], ids[1], ids[2], ids[3], ids[4], ids[5]
	gg.MustAddLink(a, m, 1, 1)
	gg.MustAddLink(b, m, 1, 1)
	gg.MustAddLink(m, n, 1, 1) // the bottleneck both finals want
	gg.MustAddLink(n, x, 1, 1)
	gg.MustAddLink(n, y, 1, 1)
	gg.MustAddLink(a, x, 1, 1) // initial direct links
	gg.MustAddLink(b, y, 1, 1)
	bad := []Flow{
		{Name: "f1", Demand: 1, Init: graph.Path{a, x}, Fin: graph.Path{a, m, n, x}},
		{Name: "f2", Demand: 1, Init: graph.Path{b, y}, Fin: graph.Path{b, m, n, y}},
	}
	if _, err := Solve(gg, bad, Options{}); err == nil {
		t.Fatal("oversubscribed final configuration accepted")
	}
}

// TestCheckSteadyStateAllocs: the steady checks of an ordinary component
// allocate nothing, and a batch with more uses than the stack holds
// reports the same first violation.
func TestCheckSteadyStateAllocs(t *testing.T) {
	g, flows := twoFlowNet(t)
	for _, final := range []bool{false, true} {
		if a := testing.AllocsPerRun(100, func() {
			if err := checkSteadyState(g, flows, final); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Errorf("final=%v: %.0f allocations per check, want 0", final, a)
		}
	}
	line := graph.New()
	var p graph.Path
	for i := 0; i < 40; i++ {
		p = append(p, line.AddNode(fmt.Sprintf("n%d", i)))
		if i > 0 {
			line.MustAddLink(p[i-1], p[i], 1, 1)
		}
	}
	long := []Flow{{Name: "a", Demand: 1, Init: p, Fin: p}, {Name: "b", Demand: 1, Init: p, Fin: p}} // 78 uses
	want := `link n0->n1 oversubscribed by flow(s) "a", "b": 2 > 1`
	if err := checkSteadyState(line, long, true); err == nil || err.Error() != want {
		t.Fatalf("got %v, want %s", err, want)
	}
}

func TestBatchEmpty(t *testing.T) {
	g, _ := twoFlowNet(t)
	plan, err := Solve(g, nil, Options{})
	if err != nil || len(plan.Updates) != 0 || !plan.Report.OK() {
		t.Fatalf("empty batch: %v %+v", err, plan)
	}
}

func TestBatchGapAndMode(t *testing.T) {
	g, flows := twoFlowNet(t)
	plan, err := Solve(g, flows, Options{Scheme: "chronus-fast"})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	// The second flow starts the tick after the first one's transients
	// drained from both of its paths.
	first, second := plan.Updates[0], plan.Updates[1]
	drain := dynflow.Tick(flows[0].Init.Delay(g) + flows[0].Fin.Delay(g))
	if want := first.S.End() + drain + 1; second.S.Start != want {
		t.Fatalf("second flow starts at %d, want %d (first ends at %d, drain %d)",
			second.S.Start, want, first.S.End(), drain)
	}
}

func TestBatchSaturatedMixedConfiguration(t *testing.T) {
	// f1 settles onto a link that f2 needs for its own migration while f2
	// still waits: the mixed configuration is oversubscribed and the batch
	// reports infeasibility rather than a violating plan.
	g := graph.New()
	ids := g.AddNodes("a", "b", "c", "d", "e")
	a, b, c, d, e := ids[0], ids[1], ids[2], ids[3], ids[4]
	g.MustAddLink(a, c, 1, 1)
	g.MustAddLink(b, c, 1, 1)
	g.MustAddLink(c, d, 1, 1) // contended by f1's final and f2's initial
	g.MustAddLink(a, d, 1, 1)
	g.MustAddLink(b, e, 9, 1)
	g.MustAddLink(e, d, 9, 1)
	flows := []Flow{
		{Name: "f1", Demand: 1, Init: graph.Path{a, d}, Fin: graph.Path{a, c, d}},
		{Name: "f2", Demand: 1, Init: graph.Path{b, c, d}, Fin: graph.Path{b, e, d}},
	}
	// Initial config: f2 on (c,d); final config: f1 on (c,d) — each fine
	// alone, but f1 migrates first onto (c,d) while f2 still sits there.
	_, err := Solve(g, flows, Options{})
	if err == nil {
		t.Fatal("mixed-configuration saturation accepted")
	}
	if !errors.Is(err, ErrInfeasible) && err != nil {
		// Any error is acceptable as long as no violating plan is returned;
		// prefer the typed one.
		t.Logf("non-typed error (acceptable): %v", err)
	}
	// Reordering the batch fixes it: migrate f2 away first.
	reordered := []Flow{flows[1], flows[0]}
	plan, err := Solve(g, reordered, Options{})
	if err != nil {
		t.Fatalf("reordered batch failed: %v", err)
	}
	if !plan.Report.OK() {
		t.Fatalf("reordered joint report: %s", plan.Report.Summary())
	}
}

// TestBatchRandomJointClean: random multi-flow batches that Solve accepts
// are always violation-free under the joint validator (which Solve itself
// asserts, but this re-checks through the public surface with independent
// instances).
func TestBatchRandomJointClean(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	accepted := 0
	for trial := 0; trial < 30; trial++ {
		// Two independent random instances placed on disjoint graphs glued
		// into one shared graph (disjoint flows always compose).
		inA := topo.RandomInstance(rng, topo.DefaultRandomParams(6+rng.Intn(5)))
		g := inA.G
		offsetNames := func(p graph.Path, m map[graph.NodeID]graph.NodeID) graph.Path {
			out := make(graph.Path, len(p))
			for i, v := range p {
				out[i] = m[v]
			}
			return out
		}
		inB := topo.RandomInstance(rng, topo.DefaultRandomParams(6+rng.Intn(5)))
		idMap := make(map[graph.NodeID]graph.NodeID, inB.G.NumNodes())
		for _, v := range inB.G.Nodes() {
			idMap[v] = g.AddNode("B" + inB.G.Name(v))
		}
		for _, l := range inB.G.Links() {
			g.MustAddLink(idMap[l.From], idMap[l.To], l.Cap, l.Delay)
		}
		flows := []Flow{
			{Name: "fa", Demand: inA.Demand, Init: inA.Init, Fin: inA.Fin},
			{Name: "fb", Demand: inB.Demand, Init: offsetNames(inB.Init, idMap), Fin: offsetNames(inB.Fin, idMap)},
		}
		plan, err := Solve(g, flows, Options{Scheme: "chronus-fast"})
		if err != nil {
			continue // per-flow infeasibility is fine
		}
		accepted++
		report, jerr := dynflow.ValidateJoint(plan.Updates)
		if jerr != nil {
			t.Fatal(jerr)
		}
		if !report.OK() {
			t.Fatalf("trial %d: accepted batch violates: %s", trial, report.Summary())
		}
	}
	if accepted == 0 {
		t.Fatal("no batch accepted across 30 trials")
	}
}

// TestBatchErrorsNameFlow asserts the satellite contract: every error
// Solve can return carries the offending flow's name, so a failed batch
// of hundreds of flows is debuggable from the message alone.
func TestBatchErrorsNameFlow(t *testing.T) {
	// Oversubscribed steady state: both finals cross the (m, n) bottleneck.
	gg := graph.New()
	ids := gg.AddNodes("a", "b", "m", "n", "x", "y")
	a, b, m, n, x, y := ids[0], ids[1], ids[2], ids[3], ids[4], ids[5]
	gg.MustAddLink(a, m, 1, 1)
	gg.MustAddLink(b, m, 1, 1)
	gg.MustAddLink(m, n, 1, 1)
	gg.MustAddLink(n, x, 1, 1)
	gg.MustAddLink(n, y, 1, 1)
	gg.MustAddLink(a, x, 1, 1)
	gg.MustAddLink(b, y, 1, 1)
	over := []Flow{
		{Name: "alpha", Demand: 1, Init: graph.Path{a, x}, Fin: graph.Path{a, m, n, x}},
		{Name: "beta", Demand: 1, Init: graph.Path{b, y}, Fin: graph.Path{b, m, n, y}},
	}
	_, err := Solve(gg, over, Options{})
	if err == nil {
		t.Fatal("oversubscribed final accepted")
	}
	for _, want := range []string{`"alpha"`, `"beta"`} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("oversubscription error %q does not name flow %s", err, want)
		}
	}

	// Missing link in a steady state.
	bogus := []Flow{{Name: "ghost", Demand: 1, Init: graph.Path{a, x}, Fin: graph.Path{a, y}}}
	_, err = Solve(gg, bogus, Options{})
	if err == nil || !strings.Contains(err.Error(), `"ghost"`) {
		t.Fatalf("missing-link error does not name flow: %v", err)
	}

	// Mixed-configuration saturation (residualGraph path).
	g2 := graph.New()
	ids2 := g2.AddNodes("a", "b", "c", "d", "e")
	a2, b2, c2, d2, e2 := ids2[0], ids2[1], ids2[2], ids2[3], ids2[4]
	g2.MustAddLink(a2, c2, 1, 1)
	g2.MustAddLink(b2, c2, 1, 1)
	g2.MustAddLink(c2, d2, 1, 1)
	g2.MustAddLink(a2, d2, 1, 1)
	g2.MustAddLink(b2, e2, 9, 1)
	g2.MustAddLink(e2, d2, 9, 1)
	mixed := []Flow{
		{Name: "first", Demand: 1, Init: graph.Path{a2, d2}, Fin: graph.Path{a2, c2, d2}},
		{Name: "second", Demand: 1, Init: graph.Path{b2, c2, d2}, Fin: graph.Path{b2, e2, d2}},
	}
	_, err = Solve(g2, mixed, Options{})
	if err == nil || !strings.Contains(err.Error(), `"second"`) && !strings.Contains(err.Error(), `"first"`) {
		t.Fatalf("mixed-saturation error does not name a flow: %v", err)
	}

	// A scheme that plans rounds, not timed schedules, cannot compose.
	g3, flows3 := twoFlowNet(t)
	_, err = Solve(g3, flows3, Options{Scheme: "or"})
	if err == nil || !strings.Contains(err.Error(), `"f1"`) {
		t.Fatalf("untimed-scheme error does not name flow: %v", err)
	}

	// Unknown scheme name (no flow to blame; the registry lists names).
	_, err = Solve(g3, flows3, Options{Scheme: "nope"})
	if !errors.Is(err, scheme.ErrUnknown) {
		t.Fatalf("unknown scheme error = %v", err)
	}
}

// TestBatchCrossSchemeJointClean is the batch half of the cross-scheme
// property: every registered scheme that can produce timed schedules
// yields batches whose joint report is clean (best-effort schemes are
// allowed to fail joint validation and are skipped when they do).
func TestBatchCrossSchemeJointClean(t *testing.T) {
	for _, name := range scheme.Names() {
		g, flows := twoFlowNet(t)
		plan, err := Solve(g, flows, Options{Scheme: name})
		if err != nil {
			// Round-based and decision-only schemes cannot compose; their
			// refusal must name the first flow. Best-effort schemes may
			// fail joint validation instead.
			if !strings.Contains(err.Error(), `"f1"`) && !strings.Contains(err.Error(), "joint validation") {
				t.Fatalf("%s: unexpected error: %v", name, err)
			}
			continue
		}
		if !plan.Report.OK() {
			t.Fatalf("%s: accepted batch violates: %s", name, plan.Report.Summary())
		}
		report, jerr := dynflow.ValidateJoint(plan.Updates)
		if jerr != nil || !report.OK() {
			t.Fatalf("%s: re-validation failed: %v %s", name, jerr, report.Summary())
		}
	}
}

// TestSolveEachRefusesPerFlow: where Solve fails the whole batch on one
// inadmissible flow, SolveEach admits the rest and refuses just the
// offender with a named reason.
func TestSolveEachRefusesPerFlow(t *testing.T) {
	g, flows := twoFlowNet(t)
	// A third flow oversubscribes its final configuration: demand 2 on
	// capacity-1 links can never settle.
	bad := Flow{Name: "hog", Demand: 2,
		Init: graph.Path{g.Lookup("s1"), g.Lookup("up"), g.Lookup("t1")},
		Fin:  graph.Path{g.Lookup("s1"), g.Lookup("dn"), g.Lookup("t1")}}
	plan, refusals, err := SolveEach(g, append(flows, bad), Options{})
	if err != nil {
		t.Fatalf("SolveEach: %v", err)
	}
	if len(plan.Updates) != 2 || !plan.Report.OK() {
		t.Fatalf("admitted %d updates (report ok=%v), want the 2 good flows", len(plan.Updates), plan.Report.OK())
	}
	if len(refusals) != 1 || refusals[0].Flow != "hog" {
		t.Fatalf("refusals = %+v, want one refusal of hog", refusals)
	}
	if refusals[0].Reason == "" {
		t.Fatal("refusal carries no reason")
	}
}

// TestSolveEachRefusalLandsOnNewcomer: an admitted flow's schedule must
// never be invalidated by a later admission — the joint re-validation
// charges the failure to the newcomer.
func TestSolveEachRefusalLandsOnNewcomer(t *testing.T) {
	g, flows := twoFlowNet(t)
	// Duplicate f1's migration under a new name: the steady-state sum on
	// its capacity-1 links breaks only once the clone joins the set.
	clone := flows[0]
	clone.Name = "f1-clone"
	plan, refusals, err := SolveEach(g, []Flow{flows[0], flows[1], clone}, Options{})
	if err != nil {
		t.Fatalf("SolveEach: %v", err)
	}
	for _, u := range plan.Updates {
		if u.Name == "f1-clone" {
			t.Fatal("newcomer admitted over the earlier identical flow")
		}
	}
	if len(refusals) != 1 || refusals[0].Flow != "f1-clone" {
		t.Fatalf("refusals = %+v, want f1-clone refused", refusals)
	}
}

// TestJointMatchesValidateForOneFlow backs SolveEach's skip of the joint
// check for a lone flow its scheme validated clean: on one flow,
// ValidateJoint and Validate give the same verdict. The corpus is soak-
// shaped pods (twelve switches, demand 4, mostly slack links, delays up to
// 3) and random pods of 4 to 15 switches, embedded in one graph, migrated
// either way at every demand the pod carries, under the chronus schedule
// and under random schedules, clean or not.
func TestJointMatchesValidateForOneFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(20170605))
	g := graph.New()
	var pods []*dynflow.Instance
	for p := 0; p < 24; p++ {
		params := topo.DefaultRandomParams(12)
		params.Demand, params.TightFraction, params.MaxDelay = 4, 0.25, 3
		if p%2 == 1 {
			params = topo.DefaultRandomParams(4 + rng.Intn(12))
		}
		on, _ := topo.Embed(g, topo.RandomInstance(rng, params), fmt.Sprintf("p%d.", p))
		pods = append(pods, on)
	}
	var clean, dirty int
	for p, pod := range pods {
		for _, swap := range []bool{false, true} {
			for d := graph.Capacity(1); d <= pod.Demand; d++ {
				in := &dynflow.Instance{G: g, Demand: d, Init: pod.Init, Fin: pod.Fin}
				if swap {
					in.Init, in.Fin = in.Fin, in.Init
				}
				var schedules []*dynflow.Schedule
				if res, err := scheme.Solve("chronus", in, scheme.Options{Start: 3}); err == nil {
					schedules = append(schedules, res.Schedule)
				}
				for r := 0; r < 3; r++ {
					s := dynflow.NewSchedule(dynflow.Tick(rng.Intn(5)))
					for _, v := range in.UpdateSet() {
						s.Set(v, s.Start+dynflow.Tick(rng.Intn(1+4*r)))
					}
					schedules = append(schedules, s)
				}
				for _, s := range schedules {
					joint, err := dynflow.ValidateJoint([]dynflow.FlowUpdate{{Name: "f", In: in, S: s}})
					if err != nil {
						t.Fatal(err)
					}
					if want := dynflow.Validate(in, s); joint.OK() != want.OK() {
						t.Fatalf("pod %d demand %d swapped %v, schedule %v: joint %s, Validate %s", p, d, swap, s, joint.Summary(), want.Summary())
					} else if want.OK() {
						clean++
					} else {
						dirty++
					}
				}
			}
		}
	}
	if clean < 100 || dirty < 100 {
		t.Fatalf("corpus too small: %d clean, %d violating schedules", clean, dirty)
	}
}
