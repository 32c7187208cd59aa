package opt

import (
	"math/rand"
	"testing"

	"github.com/chronus-sdn/chronus/internal/core"
	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/graph"
	"github.com/chronus-sdn/chronus/internal/topo"
)

func catchUp(t testing.TB, sharedCap graph.Capacity) *dynflow.Instance {
	t.Helper()
	g := graph.New()
	v := g.AddNodes("s", "a", "m", "d")
	g.MustAddLink(v[0], v[1], 1, 1)
	g.MustAddLink(v[1], v[2], 1, 1)
	g.MustAddLink(v[2], v[3], sharedCap, 1)
	g.MustAddLink(v[0], v[2], 1, 1)
	in := &dynflow.Instance{
		G:      g,
		Demand: 1,
		Init:   graph.Path{v[0], v[1], v[2], v[3]},
		Fin:    graph.Path{v[0], v[2], v[3]},
	}
	if err := in.Validate(); err != nil {
		t.Fatalf("catchUp invalid: %v", err)
	}
	return in
}

func TestExactFig1Optimal(t *testing.T) {
	in := topo.Fig1Example()
	res, err := Exact(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	if res.Schedule.Makespan() != 3 {
		t.Fatalf("makespan = %d, want 3", res.Schedule.Makespan())
	}
	if r := dynflow.Validate(in, res.Schedule); !r.OK() {
		t.Fatalf("optimal schedule violates: %s", r.Summary())
	}
}

func TestExactInfeasible(t *testing.T) {
	res, err := Exact(catchUp(t, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
	ok, status, err := Feasible(catchUp(t, 1), Options{})
	if err != nil || ok || status != StatusInfeasible {
		t.Fatalf("Feasible = %v %v %v", ok, status, err)
	}
}

func TestExactSlackImmediate(t *testing.T) {
	res, err := Exact(catchUp(t, 2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal || res.Schedule.Makespan() != 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestExactBudget(t *testing.T) {
	in := topo.Fig1Example()
	res, err := Exact(in, Options{MaxNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusBudget {
		t.Fatalf("status = %v, want budget", res.Status)
	}
	// The greedy incumbent is still available.
	if res.Schedule == nil {
		t.Fatal("no incumbent on budget exhaustion")
	}
}

func TestExactLargeInstanceBudget(t *testing.T) {
	// Large update sets are searched under the node budget and come back
	// with the greedy incumbent rather than an error.
	rng := rand.New(rand.NewSource(5))
	p := topo.DefaultRandomParams(90)
	p.FinalInclude = 1
	in := topo.RandomInstance(rng, p)
	res, err := Exact(in, Options{MaxNodes: 50})
	if err != nil {
		t.Fatalf("Exact on large instance: %v", err)
	}
	if res.Status == StatusOptimal && res.Schedule == nil {
		t.Fatalf("inconsistent result: %+v", res)
	}
}

// TestExactNeverWorseThanGreedy: OPT's makespan is a lower bound on exact
// greedy's, and OPT succeeds whenever greedy does.
func TestExactNeverWorseThanGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	checked := 0
	for i := 0; i < 25; i++ {
		n := 4 + rng.Intn(5)
		in := topo.RandomInstance(rng, topo.DefaultRandomParams(n))
		gr, gErr := core.Greedy(in, core.Options{Mode: core.ModeExact})
		res, err := Exact(in, Options{MaxNodes: 15000})
		if err != nil {
			t.Fatal(err)
		}
		if gErr == nil {
			if res.Schedule == nil {
				t.Fatalf("instance %d: greedy solved but OPT found nothing", i)
			}
			if res.Status == StatusOptimal && res.Schedule.Makespan() > gr.Schedule.Makespan() {
				t.Fatalf("instance %d: OPT makespan %d > greedy %d", i, res.Schedule.Makespan(), gr.Schedule.Makespan())
			}
			checked++
		}
		if res.Status == StatusOptimal && res.Schedule != nil {
			if r := dynflow.Validate(in, res.Schedule); !r.OK() {
				t.Fatalf("instance %d: OPT schedule violates: %s", i, r.Summary())
			}
		}
	}
	if checked < 10 {
		t.Fatalf("only %d greedy-solved instances; generator drifted", checked)
	}
}

func TestILPCatchUp(t *testing.T) {
	res, err := SolveILP(catchUp(t, 1), ILPOptions{MaxMakespan: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
	res, err = SolveILP(catchUp(t, 2), ILPOptions{MaxMakespan: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal || res.Schedule.Makespan() != 0 {
		t.Fatalf("res = %+v", res)
	}
	if r := dynflow.Validate(catchUp(t, 2), res.Schedule); !r.OK() {
		t.Fatalf("ILP schedule violates: %s", r.Summary())
	}
}

// TestILPMatchesExact cross-validates the two solvers on small random
// instances: same feasibility verdict and same optimal makespan.
func TestILPMatchesExact(t *testing.T) {
	if testing.Short() {
		t.Skip("ILP cross-check is slow")
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 8; i++ {
		p := topo.DefaultRandomParams(4 + rng.Intn(2))
		p.MaxDelay = 2
		in := topo.RandomInstance(rng, p)
		ex, err := Exact(in, Options{MaxNodes: 200000})
		if err != nil {
			t.Fatal(err)
		}
		il, err := SolveILP(in, ILPOptions{MaxMakespan: 8})
		if err != nil {
			t.Fatal(err)
		}
		if ex.Status == StatusBudget || il.Status == StatusBudget {
			continue
		}
		if (ex.Status == StatusOptimal) != (il.Status == StatusOptimal) {
			// Exact searches an unbounded horizon; the ILP is capped at 8.
			if ex.Status == StatusOptimal && ex.Schedule.Makespan() > 8 {
				continue
			}
			t.Fatalf("instance %d: exact=%v ilp=%v", i, ex.Status, il.Status)
		}
		if ex.Status == StatusOptimal && ex.Schedule.Makespan() != il.Schedule.Makespan() {
			t.Fatalf("instance %d: exact makespan %d != ilp %d", i, ex.Schedule.Makespan(), il.Schedule.Makespan())
		}
		if il.Schedule != nil {
			if r := dynflow.Validate(in, il.Schedule); !r.OK() {
				t.Fatalf("instance %d: ILP schedule violates: %s", i, r.Summary())
			}
		}
	}
}

// bruteForceMakespan enumerates every tick assignment in [0, horizon] for
// the update set and returns the smallest makespan dynflow.Validate
// accepts, or -1 when no assignment within the horizon is clean.
func bruteForceMakespan(in *dynflow.Instance, horizon dynflow.Tick) dynflow.Tick {
	pending := in.UpdateSet()
	best := dynflow.Tick(-1)
	s := dynflow.NewSchedule(0)
	var assign func(i int, end dynflow.Tick)
	assign = func(i int, end dynflow.Tick) {
		if best >= 0 && end >= best {
			return
		}
		if i == len(pending) {
			if dynflow.Validate(in, s).OK() {
				best = end
			}
			return
		}
		for t := dynflow.Tick(0); t <= horizon; t++ {
			s.Set(pending[i], t)
			assign(i+1, max(end, t))
		}
		delete(s.Times, pending[i])
	}
	assign(0, 0)
	return best
}

// TestExactMatchesBruteForce is Exact's optimality oracle: on small
// random instances (update sets of at most four switches) it enumerates
// every schedule with ticks in [0, 6] and requires Exact to find the
// minimum clean makespan, or to find none within the horizon when the
// enumeration finds none. Unlike TestExactNeverWorseThanGreedy it also
// fails when Exact stops one tick short of the optimum or never searches
// the last tick of a makespan.
func TestExactMatchesBruteForce(t *testing.T) {
	const horizon, want = 6, 150
	rng := rand.New(rand.NewSource(1))
	var checked, suboptimal, infeasible int
	for i := 0; checked < want; i++ {
		p := topo.DefaultRandomParams(4 + i%5)
		p.MaxDelay = graph.Delay(1 + (i/5)%3)
		in := topo.RandomInstance(rng, p)
		if len(in.UpdateSet()) > 4 {
			continue
		}
		checked++
		opt := bruteForceMakespan(in, horizon)
		// Below the horizon Exact's search is small; past it (the
		// enumeration found nothing) only a claim within the horizon is
		// checked, so a budget stop there is no failure.
		res, err := Exact(in, Options{MaxNodes: 5000})
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case opt < 0:
			infeasible++
			if res.Schedule != nil && res.Schedule.Makespan() <= horizon {
				t.Fatalf("instance %d: Exact returns makespan %d, no schedule within %d exists",
					i, res.Schedule.Makespan(), horizon)
			}
		case res.Status != StatusOptimal:
			t.Fatalf("instance %d: Exact says %v, brute force found makespan %d", i, res.Status, opt)
		case res.Schedule.Makespan() != opt:
			t.Fatalf("instance %d: Exact makespan %d, brute-force optimum %d", i, res.Schedule.Makespan(), opt)
		}
		if res.Schedule != nil {
			if r := dynflow.Validate(in, res.Schedule); !r.OK() {
				t.Fatalf("instance %d: Exact schedule violates: %s", i, r.Summary())
			}
		}
		if opt >= 0 {
			if gr, err := core.Greedy(in, core.Options{Mode: core.ModeExact}); err != nil || gr.Schedule.Makespan() > opt {
				suboptimal++
			}
		}
	}
	t.Logf("%d instances: %d greedy-suboptimal, %d infeasible within %d ticks", checked, suboptimal, infeasible, horizon)
	if suboptimal == 0 || infeasible == 0 {
		t.Fatalf("corpus drifted: %d greedy-suboptimal, %d infeasible; the oracle no longer separates Exact from greedy", suboptimal, infeasible)
	}
}
