package scheme

import (
	"errors"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/obs"
	"github.com/chronus-sdn/chronus/internal/topo"
)

// The full built-in cast, in the sorted order the registry reports it.
var builtins = []string{"chronus", "chronus-fast", "oneshot", "opt", "or", "sequential", "tree"}

func TestRegistryNames(t *testing.T) {
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Names not sorted: %v", names)
	}
	if len(names) != len(builtins) {
		t.Fatalf("registered %v, want %v", names, builtins)
	}
	for i, want := range builtins {
		if names[i] != want {
			t.Fatalf("registered %v, want %v", names, builtins)
		}
	}
	for _, name := range names {
		s, ok := Get(name)
		if !ok || s.Name() != name {
			t.Fatalf("Get(%q) = %v, %v", name, s, ok)
		}
	}
	if all := All(); len(all) != len(names) || all[0].Name() != names[0] {
		t.Fatalf("All() out of step with Names(): %d schemes", len(all))
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	Register(oneshotScheme{})
}

func TestLookupUnknown(t *testing.T) {
	_, err := Lookup("definitely-not-a-scheme")
	if !errors.Is(err, ErrUnknown) {
		t.Fatalf("err = %v, want ErrUnknown", err)
	}
	// The error must teach the caller the valid names.
	for _, name := range builtins {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list %q", err, name)
		}
	}
}

func TestSolveRecordsSchemeLabelledMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	in := topo.Fig1Example()
	if _, err := Solve("chronus", in, Options{Obs: reg}); err != nil {
		t.Fatal(err)
	}
	if _, err := Solve("oneshot", in, Options{Obs: reg}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(`chronus_scheme_solve_total{scheme="chronus",outcome="ok"}`).Value(); got != 1 {
		t.Fatalf("chronus ok counter = %d", got)
	}
	if got := reg.Counter(`chronus_scheme_solve_total{scheme="oneshot",outcome="best_effort"}`).Value(); got != 1 {
		t.Fatalf("oneshot best_effort counter = %d", got)
	}
}

// The registry's core safety property: whatever the scheme, a result it
// does NOT flag as best-effort must withstand the ground-truth validator.
// Timed schedules validate directly; round-based results are replayed at
// one round per tick; decision-only results are exercised through their
// witness order.
func TestCrossSchemePropertyValidate(t *testing.T) {
	for _, n := range []int{8, 16} {
		rng := rand.New(rand.NewSource(4000 + int64(n)))
		for trial := 0; trial < 12; trial++ {
			in := topo.RandomInstance(rng, topo.DefaultRandomParams(n))
			for _, s := range All() {
				res, err := s.Solve(in, Options{Budget: Budget{MaxNodes: 3000}})
				switch {
				case errors.Is(err, ErrInfeasible), errors.Is(err, ErrUnsupported):
					continue
				case err != nil:
					t.Fatalf("n=%d trial=%d %s: %v", n, trial, s.Name(), err)
				}
				if res == nil || res.BestEffort {
					continue
				}
				if res.Schedule != nil {
					rep := res.Report
					if rep == nil {
						rep = dynflow.Validate(in, res.Schedule)
					}
					if !rep.OK() {
						t.Fatalf("n=%d trial=%d %s: schedule not violation-free: %s", n, trial, s.Name(), rep.Summary())
					}
				}
			}
		}
	}
}

// TestGreedyBudgetKnobIgnoredDiagnostics: the greedy engines honor only
// Budget.MaxTicks; setting Timeout or MaxNodes on chronus/chronus-fast
// must be flagged in Diagnostics instead of silently dropped.
func TestGreedyBudgetKnobIgnoredDiagnostics(t *testing.T) {
	in := topo.Fig1Example()
	for _, name := range []string{"chronus", "chronus-fast"} {
		res, err := Solve(name, in, Options{Budget: Budget{Timeout: time.Second, MaxNodes: 5}})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Diagnostics["budget_knob_ignored:timeout"] != 1 {
			t.Errorf("%s: timeout not flagged as ignored: %v", name, res.Diagnostics)
		}
		if res.Diagnostics["budget_knob_ignored:max_nodes"] != 1 {
			t.Errorf("%s: max_nodes not flagged as ignored: %v", name, res.Diagnostics)
		}

		res, err = Solve(name, in, Options{Budget: Budget{MaxTicks: 1000}})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, k := range []string{"budget_knob_ignored:timeout", "budget_knob_ignored:max_nodes"} {
			if _, present := res.Diagnostics[k]; present {
				t.Errorf("%s: %s flagged although the knob was unset", name, k)
			}
		}
	}
}

// TestCacheConcurrentPooledSolves drives concurrent solves that share the
// pooled greedy workspaces (the one piece of solver state that outlives a
// solve); it exists to be run under -race (the CI pins
// `go test -run ConcurrentPooledSolves -race -count=2`).
func TestCacheConcurrentPooledSolves(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		// Paired goroutines (g/2) build identical instances, so a
		// workspace handed from one to the other is resized for the
		// same shape as often as for a different one.
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(7000 + seed))
			for trial := 0; trial < 6; trial++ {
				in := topo.RandomInstance(rng, topo.DefaultRandomParams(12))
				for _, name := range []string{"chronus", "chronus-fast"} {
					res, err := Solve(name, in, Options{})
					if err != nil && !errors.Is(err, ErrInfeasible) {
						t.Errorf("%s: %v", name, err)
						return
					}
					if err == nil && res.Schedule == nil {
						t.Errorf("%s: no schedule", name)
						return
					}
				}
			}
		}(int64(g / 2))
	}
	wg.Wait()
}
