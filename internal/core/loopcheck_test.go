package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/graph"
	"github.com/chronus-sdn/chronus/internal/topo"
)

// TestLoopCheckerAgainstLoopFree pins how the two Algorithm 4
// implementations relate, over the property-test corpus: on every
// instance, at every tick of the greedy schedule (when there is one) and
// of random partial schedules, wherever fresh traffic still reaches the
// destination,
//
//   - they agree on every switch of the active path, and
//   - off the active path the greedy's loopChecker is the more lenient
//     one: it accepts whatever LoopFree accepts, and also a switch whose
//     redirected route leads back through that switch itself (it carries
//     no fresh traffic at that tick).
//
// The second point is why TreeFeasible keeps LoopFree: Algorithm 1 has no
// validator behind it, and run over loopChecker.ok it changes verdict on
// 110 and order on 3395 of 19996 random uniform-delay instances.
func TestLoopCheckerAgainstLoopFree(t *testing.T) {
	onPath, offPath, lenient := 0, 0, 0
	f := func(seed int64, nRaw uint8) bool {
		n := 4 + int(nRaw%16)
		rng := rand.New(rand.NewSource(seed))
		in := topo.RandomInstance(rng, topo.DefaultRandomParams(n))
		ws := getWorkspace(in.G.NumNodes())
		defer putWorkspace(ws)

		schedules := []*dynflow.Schedule{dynflow.NewSchedule(0)}
		if res, err := Greedy(in, Options{Mode: ModeExact}); err == nil {
			schedules = append(schedules, res.Schedule)
		}
		for k := 0; k < 4; k++ {
			s := dynflow.NewSchedule(0)
			for _, v := range in.UpdateSet() {
				if rng.Intn(2) == 0 {
					s.Set(v, dynflow.Tick(rng.Intn(6)))
				}
			}
			schedules = append(schedules, s)
		}
		for _, s := range schedules {
			for tick := s.Start - 1; tick <= s.End()+1; tick++ {
				lc := newLoopChecker(in, s, tick, ws)
				if lc.cur[len(lc.cur)-1] != in.Dest() {
					continue // a cycling or blackholing configuration no scheduler reaches
				}
				for i := 0; i < in.G.NumNodes(); i++ {
					v := graph.NodeID(i)
					strict, got := LoopFree(in, s, v, tick), lc.ok(v)
					_, on := lc.posOf(v)
					if on {
						onPath++
					} else {
						offPath++
					}
					if got == strict {
						continue
					}
					if on || strict {
						t.Errorf("seed %d n %d tick %d switch %s (on active path %v): checker %v, LoopFree %v",
							seed, n, tick, in.G.Name(v), on, got, strict)
						return false
					}
					lenient++
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
	if onPath == 0 || offPath == 0 || lenient == 0 {
		t.Fatalf("degenerate corpus: %d on-path, %d off-path queries, %d lenient accepts", onPath, offPath, lenient)
	}
}
