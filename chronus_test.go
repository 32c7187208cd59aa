package chronus_test

import (
	"errors"
	"math/rand"
	"testing"

	chronus "github.com/chronus-sdn/chronus"
)

func TestFacadeSolveFig1(t *testing.T) {
	in := chronus.Fig1Example()
	plan, err := chronus.Solve(in, chronus.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Schedule.Makespan() != 3 {
		t.Fatalf("makespan = %d, want 3", plan.Schedule.Makespan())
	}
	if !plan.Report.OK() {
		t.Fatalf("report: %s", plan.Report.Summary())
	}
	if r := chronus.Validate(in, plan.Schedule); !r.OK() {
		t.Fatalf("validate: %s", r.Summary())
	}
}

func TestFacadeSolveFast(t *testing.T) {
	in := chronus.Fig1Example()
	res, err := chronus.SolveWith("chronus-fast", in, chronus.SchemeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r := chronus.Validate(in, res.Schedule); !r.OK() {
		t.Fatalf("fast plan violates: %s", r.Summary())
	}
}

func TestFacadeInfeasible(t *testing.T) {
	// The catch-up instance: the new route reaches the shared tight link
	// faster than the old one.
	g := chronus.NewNetwork()
	ids := g.AddNodes("s", "a", "m", "d")
	g.MustAddLink(ids[0], ids[1], 1, 1)
	g.MustAddLink(ids[1], ids[2], 1, 1)
	g.MustAddLink(ids[2], ids[3], 1, 1)
	g.MustAddLink(ids[0], ids[2], 1, 1)
	in := &chronus.Instance{
		G:      g,
		Demand: 1,
		Init:   chronus.Path{ids[0], ids[1], ids[2], ids[3]},
		Fin:    chronus.Path{ids[0], ids[2], ids[3]},
	}
	if _, err := chronus.Solve(in, chronus.SolveOptions{}); !errors.Is(err, chronus.ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	if ok, err := chronus.Feasible(in); err != nil || ok {
		t.Fatalf("Feasible = %v, %v", ok, err)
	}
	// Best effort still returns a complete (violating) plan.
	plan, err := chronus.Solve(in, chronus.SolveOptions{BestEffort: true})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.BestEffort || plan.Report.OK() {
		t.Fatalf("best-effort plan = %+v", plan)
	}
}

func TestFacadeSolveOptimal(t *testing.T) {
	in := chronus.Fig1Example()
	optPlan, err := chronus.SolveOptimal(in, chronus.OptimalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !optPlan.Exact || optPlan.Schedule.Makespan() != 3 {
		t.Fatalf("optimal plan = %+v", optPlan)
	}
}

func TestFacadeBaselines(t *testing.T) {
	in := chronus.Fig1Example()
	acc := chronus.CountRules(in, 6)
	if acc.TPSavingsPercent() < 60 {
		t.Fatalf("savings = %.1f", acc.TPSavingsPercent())
	}
}

func TestFacadeRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	solved := 0
	for i := 0; i < 20; i++ {
		in := chronus.RandomInstance(rng, chronus.DefaultRandomInstanceParams(12))
		res, err := chronus.SolveWith("chronus-fast", in, chronus.SchemeOptions{})
		if errors.Is(err, chronus.ErrInfeasible) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		solved++
		if r := chronus.Validate(in, res.Schedule); !r.OK() {
			t.Fatalf("instance %d: %s", i, r.Summary())
		}
	}
	if solved == 0 {
		t.Fatal("no random instance solved")
	}
}

func TestFacadeTestbed(t *testing.T) {
	in := chronus.EmulationTopo()
	tb := chronus.NewTestbed(in.G)
	c := chronus.NewController(tb, chronus.ControllerOptions{Seed: 1})
	c.AttachAll(chronus.NewClockEnsemble(chronus.DefaultClockParams(1), in.G.Nodes()))
	f := chronus.FlowSpec{Name: "agg", Tag: 0, Path: in.Init, Rate: chronus.Rate(in.Demand)}
	if err := c.Provision(f); err != nil {
		t.Fatal(err)
	}
	tb.AdvanceTo(300)

	plan, err := chronus.Solve(in, chronus.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := chronus.NewSchedule(400)
	for v, tv := range plan.Schedule.Times {
		s.Set(v, 400+tv)
	}
	if err := c.ExecuteTimed(in, s, f); err != nil {
		t.Fatal(err)
	}
	tb.AdvanceTo(900)
	if tb.Net.CongestedLinks() != 0 {
		t.Fatal("timed execution congested the emulated network")
	}
	samples, err := c.SampleLink(in.Fin[0], in.Fin[1], 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 3 {
		t.Fatalf("samples = %d", len(samples))
	}
}

func TestFacadeSolveBatch(t *testing.T) {
	g := chronus.NewNetwork()
	ids := g.AddNodes("s1", "s2", "t1", "t2", "up", "dn")
	s1, s2, t1, t2, up, dn := ids[0], ids[1], ids[2], ids[3], ids[4], ids[5]
	g.MustAddLink(s1, up, 1, 1)
	g.MustAddLink(s2, up, 1, 1)
	g.MustAddLink(s1, dn, 1, 1)
	g.MustAddLink(s2, dn, 1, 1)
	g.MustAddLink(up, t1, 1, 1)
	g.MustAddLink(up, t2, 1, 1)
	g.MustAddLink(dn, t1, 1, 1)
	g.MustAddLink(dn, t2, 1, 1)
	flows := []chronus.BatchFlow{
		{Name: "f1", Demand: 1, Init: chronus.Path{s1, up, t1}, Fin: chronus.Path{s1, dn, t1}},
		{Name: "f2", Demand: 1, Init: chronus.Path{s2, dn, t2}, Fin: chronus.Path{s2, up, t2}},
	}
	plan, err := chronus.SolveBatch(g, flows, chronus.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Report.OK() {
		t.Fatalf("joint report: %s", plan.Report.Summary())
	}
	rpt, err := chronus.ValidateJoint(plan.Updates)
	if err != nil || !rpt.OK() {
		t.Fatalf("re-validation: %v %s", err, rpt.Summary())
	}
}
