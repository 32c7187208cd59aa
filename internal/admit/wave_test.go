package admit

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/chronus-sdn/chronus/internal/graph"
	"github.com/chronus-sdn/chronus/internal/obs"
	"github.com/chronus-sdn/chronus/internal/par"
)

// planPerComponent is how waves were planned before they shared one
// residual: every component solves on the ledger's residual excluding
// only its own members' holds, one graph clone per component. It is the
// oracle planComponents is held to.
func (e *Engine) planPerComponent(now int64, comps []component) []componentResult {
	residuals := make([]*graph.Graph, len(comps))
	for i, c := range comps {
		residuals[i] = e.ledger.Residual(memberIDs(c)...)
	}
	results, _ := par.Map(context.Background(), e.o.Procs, len(comps), func(_ context.Context, i int) (componentResult, error) {
		return e.planComponent(now, comps[i], residuals[i]), nil
	})
	return results
}

func memberIDs(c component) []uint64 {
	ids := make([]uint64, len(c.members))
	for i, u := range c.members {
		ids[i] = u.ID
	}
	return ids
}

// waveTally counts what the differential runs exercised.
type waveTally struct {
	waves, sizes [4]int // sizes[k]: components of k members (3 = three or more)
	carried      int    // waves planned while an earlier wave's hold was open
	execs        int    // Execute-flagged members reserved in a wave
	refusals     int    // plan-only members refused by their planner
}

// checkedPlanner plans each wave both ways on e's ledger and applies the
// oracle's results. Before that it requires, per component, equal
// capacities on every footprint link of the shared and the per-component
// residual, the same results from both, and a shared residual that
// planning left as it was, every link and capacity.
func checkedPlanner(t *testing.T, e *Engine, tally *waveTally) func(int64, []component) []componentResult {
	return func(now int64, comps []component) []componentResult {
		t.Helper()
		want := e.planPerComponent(now, comps)
		shared := e.waveResidual(comps)
		if shared == nil {
			return want
		}
		members := 0
		for _, c := range comps {
			members += len(c.members)
		}
		if e.ledger.Utilization().Holds > members {
			tally.carried++
		}
		for _, c := range comps {
			tally.sizes[min(len(c.members), 3)]++
			own := e.ledger.Residual(memberIDs(c)...)
			for _, u := range c.members {
				if u.Req.Execute {
					tally.execs++
					continue
				}
				for k := range FootprintOf(e.g, u.Req.Init, u.Req.Fin, u.Req.Demand) {
					a, okA := shared.Link(k[0], k[1])
					b, okB := own.Link(k[0], k[1])
					if okA != okB || a.Cap != b.Cap {
						t.Fatalf("wave %d link %s->%s: shared residual %d (%v), per-component %d (%v)",
							u.Wave, e.g.Name(k[0]), e.g.Name(k[1]), a.Cap, okA, b.Cap, okB)
					}
				}
			}
		}
		before := fmt.Sprint(shared, shared.Links())
		got := e.planOn(now, comps, shared)
		if fmt.Sprint(shared, shared.Links()) != before {
			t.Fatalf("wave at %d: planning edited the shared residual", now)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shared residual planned %+v, per-component residuals %+v", got, want)
		}
		for _, r := range want {
			tally.refusals += len(r.refusals)
		}
		tally.waves[min(len(comps), 3)]++
		return want
	}
}

// runBursts drives one engine through random bursts over six random pods:
// one to four pods per burst, one to three updates per pod (so components
// of one to three members), demands of one to four units (mostly one), some updates
// holding their capacity into later waves until a random completion, and
// some Execute-flagged (reserved in the wave, run by a deterministic
// executor that fails every fifth id). A nil planner drains through the
// engine's own path; otherwise every wave is planned by planner(e). It
// returns the whole trace as JSON and every update's view.
func runBursts(t *testing.T, seed int64, procs int, planner func(*Engine) func(int64, []component) []componentResult) ([]byte, []string) {
	t.Helper()
	g, pods := randomPods(seed, 6)
	rng := rand.New(rand.NewSource(seed))
	tracer := obs.NewTracer(obs.TracerOptions{})
	var vt int64
	e := New(g, Options{
		Procs: procs, Trace: tracer, Now: func() int64 { return vt },
		Execute: func(u *Update) (obs.SpanID, error) {
			if u.ID%5 == 0 {
				return 0, errors.New("switch refused the update")
			}
			return obs.SpanID(1000 + u.ID), nil
		},
	})
	var plan func(int64, []component) []componentResult
	if planner != nil {
		plan = planner(e)
	}
	var ids, held []uint64
	for burst := 0; burst < 10; burst++ {
		for _, p := range rng.Perm(len(pods))[:1+rng.Intn(4)] {
			for m := 1 + rng.Intn(3); m > 0; m-- {
				req := Request{
					Tenant: fmt.Sprintf("t%d", rng.Intn(3)), Flow: fmt.Sprintf("b%d.p%d.%d", burst, p, m),
					Demand: []graph.Capacity{1, 1, 1, 2, 3, 4}[rng.Intn(6)], Init: pods[p].Init, Fin: pods[p].Fin,
					Priority: rng.Intn(2), Hold: rng.Intn(3) == 0,
				}
				if rng.Intn(2) == 0 {
					req.Init, req.Fin = req.Fin, req.Init
				}
				if rng.Intn(6) == 0 {
					req.Execute, req.Method, req.Hold = true, "chronus", false
				}
				vt++
				id, err := e.Submit(req)
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
				if req.Hold {
					held = append(held, id)
				}
			}
		}
		vt++
		if plan == nil {
			e.Drain()
		} else {
			e.planMu.Lock()
			for e.planWave(plan) {
			}
			e.planMu.Unlock()
		}
		kept := held[:0]
		for _, id := range held {
			if rng.Intn(2) == 0 {
				e.Complete(id)
			} else {
				kept = append(kept, id)
			}
		}
		held = kept
	}
	var views []string
	for _, id := range ids {
		v, _ := e.View(id)
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, string(raw))
	}
	raw, err := json.Marshal(tracer.Events(0))
	if err != nil {
		t.Fatal(err)
	}
	return raw, views
}

// TestWaveResidualMatchesPerComponent holds the one residual per wave to
// the per-component residuals it replaced, at one and two workers: equal
// schedules, states and refusal reasons, a byte-identical trace (admit.*
// and the plan intents), equal capacities on every footprint link, and a
// shared graph planning leaves unedited (under -race the two workers also
// show it is only read).
func TestWaveResidualMatchesPerComponent(t *testing.T) {
	var tally waveTally
	for _, procs := range []int{1, 2} {
		for seed := int64(1); seed <= 16; seed++ {
			gotTrace, gotViews := runBursts(t, seed, procs, nil)
			wantTrace, wantViews := runBursts(t, seed, procs, func(e *Engine) func(int64, []component) []componentResult {
				return checkedPlanner(t, e, &tally)
			})
			for i := range wantViews {
				if gotViews[i] != wantViews[i] {
					t.Fatalf("procs %d seed %d: update %d is\n%s\nwith per-component residuals\n%s", procs, seed, i+1, gotViews[i], wantViews[i])
				}
			}
			if string(gotTrace) != string(wantTrace) {
				t.Fatalf("procs %d seed %d: the trace differs from the per-component planner's", procs, seed)
			}
		}
	}
	if tally.sizes[1] < 200 || tally.sizes[2] < 150 || tally.sizes[3] < 40 || tally.waves[3] < 80 ||
		tally.carried < 75 || tally.execs < 90 || tally.refusals < 15 {
		t.Fatalf("differential corpus too thin: %+v", tally)
	}
	t.Logf("%+v", tally)
}
