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

// mergeAtU builds an instance where s's flip makes new units catch up
// with old ones at u: old s→a→u takes 3 ticks, new s→u takes 1, so with s
// flipped at 0 two units reach u at ticks 1 and 2. u's old link ⟨u,o⟩
// carries one, its new link ⟨u,d⟩ carries two.
func mergeAtU(t testing.TB) *dynflow.Instance {
	t.Helper()
	g := graph.New()
	v := g.AddNodes("s", "a", "u", "o", "d")
	s, a, u, o, d := v[0], v[1], v[2], v[3], v[4]
	g.MustAddLink(s, a, 1, 1)
	g.MustAddLink(a, u, 1, 2)
	g.MustAddLink(u, o, 1, 1)
	g.MustAddLink(o, d, 1, 1)
	g.MustAddLink(s, u, 1, 1)
	g.MustAddLink(u, d, 2, 1)
	in := &dynflow.Instance{
		G:      g,
		Demand: 1,
		Init:   graph.Path{s, a, u, o, d},
		Fin:    graph.Path{s, u, d},
	}
	if err := in.Validate(); err != nil {
		t.Fatalf("mergeAtU invalid: %v", err)
	}
	return in
}

// freshInstall builds an instance whose final path runs through x, a
// switch with no rule for the flow until its update installs one.
func freshInstall(t testing.TB) *dynflow.Instance {
	t.Helper()
	g := graph.New()
	v := g.AddNodes("s", "o", "x", "d")
	s, o, x, d := v[0], v[1], v[2], v[3]
	g.MustAddLink(s, o, 1, 1)
	g.MustAddLink(o, d, 1, 1)
	g.MustAddLink(s, x, 1, 1)
	g.MustAddLink(x, d, 1, 1)
	in := &dynflow.Instance{G: g, Demand: 1, Init: graph.Path{s, o, d}, Fin: graph.Path{s, x, d}}
	if err := in.Validate(); err != nil {
		t.Fatalf("freshInstall invalid: %v", err)
	}
	return in
}

// TestPruningKeepsRepairableViolations: a violation stamped at cutoff+1
// that a flip at cutoff+1 repairs must not prune the partial schedule.
// With s flipped at 0 and nothing else, mergeAtU overloads u's old link
// at departure 1, and in freshInstall the unit emitted at 0 reaches x at
// tick 1 with no rule. Flipping u, or x, at 1 completes each cleanly.
func TestPruningKeepsRepairableViolations(t *testing.T) {
	for _, c := range []struct {
		name string
		in   *dynflow.Instance
	}{
		{"congestion", mergeAtU(t)},
		{"blackhole", freshInstall(t)},
	} {
		// Both final paths are s→v→d, v the switch that repairs at tick 1.
		s, v := c.in.Fin[0], c.in.Fin[1]
		partial := dynflow.NewSchedule(0)
		partial.Set(s, 0)
		if r := dynflow.Validate(c.in, partial); r.OK() {
			t.Fatalf("%s: s@0 alone is clean, the fixture tests nothing", c.name)
		}
		full := partial.Clone()
		full.Set(v, 1)
		if r := dynflow.Validate(c.in, full); !r.OK() {
			t.Fatalf("%s: s@0, %s@1 violates: %s", c.name, c.in.G.Name(v), r.Summary())
		}
		if !violationFreeBefore(c.in, partial, 0) {
			t.Errorf("%s: s@0 pruned at cutoff 0, but %s@1 completes it cleanly", c.name, c.in.G.Name(v))
		}
	}
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
	if res.Status != StatusInfeasible || res.Schedule != nil {
		t.Fatalf("res = %+v, want infeasible with no schedule", res)
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
