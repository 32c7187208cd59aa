package baseline

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/graph"
	"github.com/chronus-sdn/chronus/internal/topo"
)

func TestORGreedyFig1(t *testing.T) {
	in := topo.Fig1Example()
	rounds, err := ORGreedy(in)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, r := range rounds {
		total += len(r)
	}
	if total != len(in.UpdateSet()) {
		t.Fatalf("rounds cover %d switches, want %d: %v", total, len(in.UpdateSet()), rounds)
	}
	if len(rounds) < 2 {
		t.Fatalf("reversal cannot be one asynchronous round: %v", rounds)
	}
	assertRoundsLoopFree(t, in, rounds)
}

// assertRoundsLoopFree re-checks the defining invariant: at every round,
// the union configuration is acyclic.
func assertRoundsLoopFree(t *testing.T, in *dynflow.Instance, rounds [][]graph.NodeID) {
	t.Helper()
	done := make(map[graph.NodeID]bool)
	for i, round := range rounds {
		flight := make(map[graph.NodeID]bool)
		for _, v := range round {
			flight[v] = true
		}
		if !unionAcyclic(in, done, flight) {
			t.Fatalf("round %d (%v) is not union-acyclic", i, round)
		}
		for _, v := range round {
			done[v] = true
		}
	}
}

func TestOROptimalFig1(t *testing.T) {
	in := topo.Fig1Example()
	res, err := OROptimal(in, OROptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact {
		t.Fatal("budget exhausted on a 5-switch instance")
	}
	greedy, _ := ORGreedy(in)
	if len(res.Rounds) > len(greedy) {
		t.Fatalf("optimal %d rounds > greedy %d", len(res.Rounds), len(greedy))
	}
	assertRoundsLoopFree(t, in, res.Rounds)
}

// TestORRoundsProperty: on random instances, greedy rounds cover the update
// set, are union-acyclic at every prefix, and OROptimal never needs more
// rounds than greedy.
func TestORRoundsProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := 4 + int(nRaw%12)
		rng := rand.New(rand.NewSource(seed))
		in := topo.RandomInstance(rng, topo.DefaultRandomParams(n))
		rounds, err := ORGreedy(in)
		if err != nil {
			return false // two-path instances always admit an order
		}
		done := make(map[graph.NodeID]bool)
		covered := 0
		for _, round := range rounds {
			flight := make(map[graph.NodeID]bool)
			for _, v := range round {
				flight[v] = true
			}
			if !unionAcyclic(in, done, flight) {
				return false
			}
			for _, v := range round {
				if done[v] {
					return false // duplicate
				}
				done[v] = true
				covered++
			}
		}
		if covered != len(in.UpdateSet()) {
			return false
		}
		res, err := OROptimal(in, OROptions{MaxNodes: 20000})
		if err != nil {
			return false
		}
		return len(res.Rounds) <= len(rounds)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestORScheduleMapping(t *testing.T) {
	in := topo.Fig1Example()
	rounds, err := ORGreedy(in)
	if err != nil {
		t.Fatal(err)
	}
	s := ORSchedule(rounds, ORScheduleOptions{Start: 10, RoundWidth: 5})
	for r, round := range rounds {
		for _, v := range round {
			tv, ok := s.Time(v)
			if !ok {
				t.Fatalf("switch %s unscheduled", in.G.Name(v))
			}
			base := dynflow.Tick(10 + 5*r)
			if tv != base {
				t.Fatalf("deterministic mapping: τ(%s) = %d, want %d", in.G.Name(v), tv, base)
			}
		}
	}
	// Jittered mapping stays within the round window.
	rng := rand.New(rand.NewSource(4))
	s = ORSchedule(rounds, ORScheduleOptions{Start: 0, RoundWidth: 5, Rng: rng})
	for r, round := range rounds {
		for _, v := range round {
			tv, _ := s.Time(v)
			lo := dynflow.Tick(5 * r)
			if tv < lo || tv >= lo+5 {
				t.Fatalf("τ(%s) = %d outside round window [%d,%d)", in.G.Name(v), tv, lo, lo+5)
			}
		}
	}
}

// TestORIncursViolationsOnFig1: replaying OR rounds on the timed validator
// exhibits the transient problems the paper describes (loops from
// intra-round asynchrony or congestion from delay-obliviousness), while the
// per-round configurations remain statically loop-free.
func TestORIncursViolationsOnFig1(t *testing.T) {
	in := topo.Fig1Example()
	rounds, err := ORGreedy(in)
	if err != nil {
		t.Fatal(err)
	}
	violated := false
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := ORSchedule(rounds, ORScheduleOptions{Start: 0, RoundWidth: 2, Rng: rng})
		if r := dynflow.Validate(in, s); !r.OK() {
			violated = true
			break
		}
	}
	if !violated {
		t.Fatal("OR replay never violated on the reversal example; the Fig. 6/7 experiments would be vacuous")
	}
}

func TestCountRules(t *testing.T) {
	in := topo.Fig1Example()
	acc := CountRules(in, 6)
	if acc.Steady != 5 {
		t.Fatalf("steady = %d, want 5", acc.Steady)
	}
	if acc.ChronusPeak != 5 { // reversal reuses every switch: no fresh installs
		t.Fatalf("chronus peak = %d, want 5", acc.ChronusPeak)
	}
	if acc.ChronusTouched != 5 {
		t.Fatalf("chronus touched = %d, want 5", acc.ChronusTouched)
	}
	wantTP := 5 + 5 + 6 + 1
	if acc.TPPeak != wantTP {
		t.Fatalf("tp peak = %d, want %d", acc.TPPeak, wantTP)
	}
	if acc.TPSavingsPercent() < 60 {
		t.Fatalf("savings = %.1f%%, want >= 60%%", acc.TPSavingsPercent())
	}
}

func TestCountRulesFinalOnlyInstalls(t *testing.T) {
	g := graph.New()
	v := g.AddNodes("s", "x", "n", "d")
	g.MustAddLink(v[0], v[1], 2, 1)
	g.MustAddLink(v[1], v[3], 2, 1)
	g.MustAddLink(v[0], v[2], 2, 1)
	g.MustAddLink(v[2], v[3], 2, 1)
	in := &dynflow.Instance{G: g, Demand: 1,
		Init: graph.Path{v[0], v[1], v[3]},
		Fin:  graph.Path{v[0], v[2], v[3]},
	}
	acc := CountRules(in, 2)
	if acc.ChronusPeak != 2+1 { // two steady + one fresh install on n
		t.Fatalf("chronus peak = %d, want 3", acc.ChronusPeak)
	}
	if acc.ChronusTouched != 2 { // s and n
		t.Fatalf("touched = %d, want 2", acc.ChronusTouched)
	}
}
