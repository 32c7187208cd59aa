package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/graph"
	"github.com/chronus-sdn/chronus/internal/topo"
)

// TestGreedyEmbeddingInvariance: the exact greedy engine decides by
// validating one flow's footprint, so under the same tick budget (the
// automatic one counts the whole graph's switches) a pod gets the same
// schedule, tick for tick, with the same number of validations, or the same
// infeasibility verdict, on its own graph and re-rooted into a sixteen-pod
// one — and the same slack certificate up to the own graph's horizon.
func TestGreedyEmbeddingInvariance(t *testing.T) {
	var pods, feasible, infeasible int
	for seed := int64(0); seed < 13; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := graph.New()
		for p := 0; p < 16; p++ {
			params := topo.DefaultRandomParams(6 + rng.Intn(9))
			params.Demand = graph.Capacity(1 + rng.Intn(4))
			if rng.Intn(2) == 0 {
				params.TightFraction, params.MaxDelay = 0.25, 3
			}
			own := topo.RandomInstance(rng, params)
			on, remap := topo.Embed(g, own, fmt.Sprintf("p%d.", p))
			pods++

			opts := Options{Start: dynflow.Tick(rng.Intn(5)), MaxTicks: autoMaxTicks(own)}
			want, wantErr := Greedy(own, opts)
			got, gotErr := Greedy(on, opts)
			if (wantErr == nil) != (gotErr == nil) || errors.Is(wantErr, ErrInfeasible) != errors.Is(gotErr, ErrInfeasible) {
				t.Fatalf("seed %d pod %d: %v on the pod's own graph, %v once embedded", seed, p, wantErr, gotErr)
			}
			if wantErr != nil {
				infeasible++
				continue
			}
			feasible++
			mapped := dynflow.NewSchedule(want.Schedule.Start)
			for v, at := range want.Schedule.Times {
				mapped.Set(remap[v], at)
			}
			if !reflect.DeepEqual(got.Schedule, mapped) || got.TicksUsed != want.TicksUsed || got.Validations != want.Validations {
				t.Fatalf("seed %d pod %d: schedule %v (%d ticks, %d validations) once embedded, %v (%d, %d) on the pod's own graph",
					seed, p, got.Schedule, got.TicksUsed, got.Validations, mapped, want.TicksUsed, want.Validations)
			}
			ownSlack, onSlack := ScheduleSlack(own, want.Schedule), ScheduleSlack(on, got.Schedule)
			for i, sl := range ownSlack {
				e := onSlack[i]
				if e.V != remap[sl.V] || e.Time != sl.Time || min(e.Slack, opts.MaxTicks) != sl.Slack || e.Critical != sl.Critical {
					t.Fatalf("seed %d pod %d: slack %+v once embedded, %+v on the pod's own graph", seed, p, e, sl)
				}
			}
		}
	}
	if pods < 200 || feasible < 50 || infeasible < 20 {
		t.Fatalf("corpus too small: %d pods, %d feasible, %d infeasible", pods, feasible, infeasible)
	}
}
