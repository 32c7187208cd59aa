package core

import (
	"errors"
	"testing"

	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/graph"
	"github.com/chronus-sdn/chronus/internal/topo"
)

// catchUp builds the minimal infeasible instance: the new route reaches the
// shared tight link (m,d) one tick faster than the old route, so for every
// flip time of s a new unit collides with an in-flight old unit.
func catchUp(t *testing.T, sharedCap graph.Capacity) *dynflow.Instance {
	t.Helper()
	g := graph.New()
	v := g.AddNodes("s", "a", "m", "d")
	g.MustAddLink(v[0], v[1], 1, 1) // s->a
	g.MustAddLink(v[1], v[2], 1, 1) // a->m
	g.MustAddLink(v[2], v[3], sharedCap, 1)
	g.MustAddLink(v[0], v[2], 1, 1) // s->m shortcut
	in := &dynflow.Instance{
		G:      g,
		Demand: 1,
		Init:   graph.Path{v[0], v[1], v[2], v[3]},
		Fin:    graph.Path{v[0], v[2], v[3]},
	}
	if err := in.Validate(); err != nil {
		t.Fatalf("catchUp instance invalid: %v", err)
	}
	return in
}

func mustGreedy(t *testing.T, in *dynflow.Instance, mode Mode) *Result {
	t.Helper()
	res, err := Greedy(in, Options{Mode: mode})
	if err != nil {
		t.Fatalf("Greedy(%v): %v", mode, err)
	}
	if !res.Schedule.Complete(in) {
		t.Fatalf("Greedy(%v): incomplete schedule %v", mode, res.Schedule)
	}
	return res
}

func TestGreedyExactFig1MatchesPaper(t *testing.T) {
	in := topo.Fig1Example()
	res := mustGreedy(t, in, ModeExact)
	s := res.Schedule
	if !res.Report.OK() {
		t.Fatalf("report not OK: %s", res.Report.Summary())
	}
	want := map[string]dynflow.Tick{"v2": 0, "v3": 1, "v1": 2, "v4": 2, "v5": 3}
	for name, wt := range want {
		got, ok := s.Time(in.G.Lookup(name))
		if !ok || got != wt {
			t.Errorf("τ(%s) = %d (ok=%v), want %d; schedule: %s", name, got, ok, wt, s.Format(in))
		}
	}
	if s.Makespan() != 3 {
		t.Fatalf("makespan = %d, want 3", s.Makespan())
	}
}

func TestGreedyFastFig1(t *testing.T) {
	in := topo.Fig1Example()
	res := mustGreedy(t, in, ModeFast)
	if res.Validations != 0 {
		t.Fatalf("fast mode invoked the validator %d times", res.Validations)
	}
	if r := dynflow.Validate(in, res.Schedule); !r.OK() {
		t.Fatalf("fast schedule violates: %s (schedule %s)", r.Summary(), res.Schedule.Format(in))
	}
	if res.Schedule.Makespan() != 3 {
		t.Fatalf("fast makespan = %d, want 3 (schedule %s)", res.Schedule.Makespan(), res.Schedule.Format(in))
	}
}

func TestGreedyNonZeroStart(t *testing.T) {
	in := topo.Fig1Example()
	res, err := Greedy(in, Options{Start: 100, Mode: ModeExact})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := res.Schedule.Time(in.G.Lookup("v2")); got != 100 {
		t.Fatalf("τ(v2) = %d, want 100", got)
	}
	if res.Schedule.Makespan() != 3 {
		t.Fatalf("makespan = %d, want 3", res.Schedule.Makespan())
	}
}

func TestGreedyInfeasibleCatchUp(t *testing.T) {
	for _, mode := range []Mode{ModeExact, ModeFast} {
		in := catchUp(t, 1)
		_, err := Greedy(in, Options{Mode: mode})
		if !errors.Is(err, ErrInfeasible) {
			t.Fatalf("Greedy(%v) = %v, want ErrInfeasible", mode, err)
		}
	}
}

func TestGreedyFeasibleWithSlack(t *testing.T) {
	for _, mode := range []Mode{ModeExact, ModeFast} {
		in := catchUp(t, 2)
		res := mustGreedy(t, in, mode)
		if r := dynflow.Validate(in, res.Schedule); !r.OK() {
			t.Fatalf("mode %v: %s", mode, r.Summary())
		}
		if res.Schedule.Makespan() != 0 {
			t.Fatalf("mode %v: makespan = %d, want 0 (single switch, immediate)", mode, res.Schedule.Makespan())
		}
	}
}

func TestGreedyInstallBeforeUse(t *testing.T) {
	// Final-only switches must be installed before the source flips.
	g := graph.New()
	v := g.AddNodes("s", "x", "n1", "n2", "d")
	g.MustAddLink(v[0], v[1], 2, 1)
	g.MustAddLink(v[1], v[4], 2, 1)
	g.MustAddLink(v[0], v[2], 2, 1)
	g.MustAddLink(v[2], v[3], 2, 1)
	g.MustAddLink(v[3], v[4], 2, 1)
	in := &dynflow.Instance{
		G:      g,
		Demand: 1,
		Init:   graph.Path{v[0], v[1], v[4]},
		Fin:    graph.Path{v[0], v[2], v[3], v[4]},
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModeExact, ModeFast} {
		res := mustGreedy(t, in, mode)
		s := res.Schedule
		if r := dynflow.Validate(in, s); !r.OK() {
			t.Fatalf("mode %v: %s", mode, r.Summary())
		}
		ts, _ := s.Time(v[0])
		t1, _ := s.Time(v[2])
		t2, _ := s.Time(v[3])
		if ts < t1 || ts < t2 {
			t.Fatalf("mode %v: source flipped before rules installed: %s", mode, s.Format(in))
		}
	}
}

func TestDependencyChainsFig1AtT0(t *testing.T) {
	in := topo.Fig1Example()
	s := dynflow.NewSchedule(0)
	ws := getWorkspace(in.G.NumNodes())
	defer putWorkspace(ws)
	chains, err := dependencyChains(in, s, in.UpdateSet(), 0, ws)
	if err != nil {
		t.Fatal(err)
	}
	if len(chains) != 1 {
		t.Fatalf("chains = %d, want one merged chain: %v", len(chains), chains)
	}
	// With the snapshot-based reading of Algorithm 3 the merged relation at
	// t0 is v2=>v4=>v1=>v3=>v5 (the paper's Fig. 5 lists v2=>v4=>v3=>v1=>v5;
	// both agree that only v2 is a head at t0, which is what Algorithm 2
	// consumes).
	got := chains[0].Format(in.G)
	if got != "v2=>v4=>v1=>v3=>v5" {
		t.Fatalf("chain = %s", got)
	}
	if head := in.G.Name(chains[0][0]); head != "v2" {
		t.Fatalf("head = %s, want v2", head)
	}
}

func TestDependencyChainsAfterV2(t *testing.T) {
	in := topo.Fig1Example()
	s := dynflow.NewSchedule(0)
	s.Set(in.G.Lookup("v2"), 0)
	pending := []graph.NodeID{
		in.G.Lookup("v1"), in.G.Lookup("v3"), in.G.Lookup("v4"), in.G.Lookup("v5"),
	}
	ws := getWorkspace(in.G.NumNodes())
	defer putWorkspace(ws)
	chains, err := dependencyChains(in, s, pending, 1, ws)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Fig. 5 shows {(v3 v1 v5), (v4)} at t1: multiple relations,
	// with v4 independent. The snapshot reading agrees that v4 and v5 are
	// unconstrained and that v1/v3 are related.
	if len(chains) < 2 {
		t.Fatalf("chains = %v, want at least 2 relations", chains)
	}
	total := 0
	for _, c := range chains {
		total += len(c)
	}
	if total != 4 {
		t.Fatalf("chains cover %d switches, want 4: %v", total, chains)
	}
}

func TestLoopFreeFig1(t *testing.T) {
	in := topo.Fig1Example()
	s := dynflow.NewSchedule(0)
	cases := []struct {
		name string
		want bool
	}{
		{"v1", true}, // redirect to v5 -> old v5 rule -> v6: no revisit
		{"v2", true}, // redirect straight to v6
		{"v3", false},
		{"v4", false},
		{"v5", false},
	}
	for _, c := range cases {
		if got := LoopFree(in, s, in.G.Lookup(c.name), 0); got != c.want {
			t.Errorf("LoopFree(%s@0) = %v, want %v", c.name, got, c.want)
		}
	}
	// After v2 and v3 flipped, v4's redirect becomes loop-free.
	s.Set(in.G.Lookup("v2"), 0)
	s.Set(in.G.Lookup("v3"), 1)
	if !LoopFree(in, s, in.G.Lookup("v4"), 2) {
		t.Error("LoopFree(v4@2) = false after v2,v3 flipped")
	}
}

func TestTreeFeasible(t *testing.T) {
	in := topo.Fig1Example()
	ok, order, err := TreeFeasible(in)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("Fig1 reported infeasible (order so far %v)", order)
	}
	if len(order) != 5 {
		t.Fatalf("order covers %d switches, want 5", len(order))
	}

	if ok, _, err := TreeFeasible(catchUp(t, 1)); err != nil || ok {
		t.Fatalf("catch-up instance: ok=%v err=%v, want infeasible", ok, err)
	}
	if ok, _, err := TreeFeasible(catchUp(t, 2)); err != nil || !ok {
		t.Fatalf("slack catch-up: ok=%v err=%v, want feasible", ok, err)
	}
}

func TestTreeFeasibleRejectsNonUniformDelays(t *testing.T) {
	in := topo.EmulationTopo()
	_, _, err := TreeFeasible(in)
	if !errors.Is(err, ErrNonUniformDelays) {
		t.Fatalf("err = %v, want ErrNonUniformDelays", err)
	}
}

func TestGreedyEmulationTopo(t *testing.T) {
	in := topo.EmulationTopo()
	res := mustGreedy(t, in, ModeExact)
	if !res.Report.OK() {
		t.Fatalf("report: %s", res.Report.Summary())
	}
	fast := mustGreedy(t, in, ModeFast)
	if r := dynflow.Validate(in, fast.Schedule); !r.OK() {
		t.Fatalf("fast schedule on emulation topo violates: %s", r.Summary())
	}
}

func TestModeString(t *testing.T) {
	if ModeExact.String() != "exact" || ModeFast.String() != "fast" {
		t.Fatal("Mode.String broken")
	}
	if Mode(9).String() == "" {
		t.Fatal("unknown mode renders empty")
	}
}
