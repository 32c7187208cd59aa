package dynflow_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/chronus-sdn/chronus/internal/core"
	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/graph"
	"github.com/chronus-sdn/chronus/internal/topo"
)

// kernelInstance is the instance and base schedule of one kernel run: a
// random instance of 3 to 12 switches (with switches only on the final
// path when n's top bit is set), scheduled by Greedy when greedy is set
// and it is feasible, otherwise left empty (which always validates clean).
func kernelInstance(seed int64, n uint8, greedy bool) (*dynflow.Instance, *dynflow.Schedule) {
	rng := rand.New(rand.NewSource(seed))
	p := topo.DefaultRandomParams(3 + int(n%10))
	p.MaxDelay = 1 + graph.Delay(rng.Intn(4))
	if n&0x80 != 0 {
		p.InitInclude = 0.6
	}
	in := topo.RandomInstance(rng, p)
	start := dynflow.Tick(rng.Intn(6))
	if greedy {
		if res, err := core.Greedy(in, core.Options{Start: start}); err == nil {
			return in, res.Schedule
		}
	}
	return in, dynflow.NewSchedule(start)
}

// runKernelOps drives a kernel through ops, two bytes per operation, and
// holds every verdict to Validate on the edited schedule: OK and
// LatestArrival always, the whole report when it is clean. The first byte
// picks the operation (move, undo or commit) and a tick offset, the second
// the switch: one of the update set, the destination, a switch off both
// paths, or an id outside the graph. seen collects the situations the run
// reached, by name.
func runKernelOps(t *testing.T, in *dynflow.Instance, s *dynflow.Schedule, ops []byte, seen map[string]bool) {
	t.Helper()
	if !dynflow.Validate(in, s).OK() {
		t.Fatal("the base schedule must validate clean")
	}
	cands := append(in.UpdateSet(), in.Dest(), graph.NodeID(in.G.NumNodes()+3))
	onPath := map[graph.NodeID]bool{}
	for _, v := range append(append(graph.Path{}, in.Init...), in.Fin...) {
		onPath[v] = true
	}
	for v := graph.NodeID(0); int(v) < in.G.NumNodes(); v++ {
		if !onPath[v] {
			cands = append(cands, v)
			break
		}
	}

	k := dynflow.NewKernel(in, s)
	defer k.Release()
	base, cur := s.Clone(), s.Clone()
	moving := graph.Invalid
	prev := dynflow.Validate(in, base)
	check := func(what string) *dynflow.Report {
		t.Helper()
		want := dynflow.Validate(in, cur)
		ok, latest := k.Check()
		if ok != want.OK() || latest != want.LatestArrival {
			t.Fatalf("%s: kernel says ok=%v latest=%d, Validate %s latest=%d (schedule %v)",
				what, ok, latest, want.Summary(), want.LatestArrival, cur)
		}
		if ok {
			got := &dynflow.Report{WindowStart: want.WindowStart, WindowEnd: latest, LatestArrival: latest}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: clean report %+v, Validate %+v", what, got, want)
			}
		}
		return want
	}
	check("the base")
	for n := 0; n+1 < len(ops); n += 2 {
		op, arg := ops[n], ops[n+1]
		switch op % 4 {
		case 0, 1:
			v := moving
			if v == graph.Invalid {
				v = cands[int(arg)%len(cands)]
			}
			at := cur.Start + dynflow.Tick(op>>2)%16
			if tv, ok := cur.Times[v]; ok {
				at = tv + dynflow.Tick(op>>2)%6
			}
			if at > cur.End() {
				seen["move past End"] = true
			}
			if !onPath[v] {
				seen["switch off the path"] = true
			}
			k.Move(v, at)
			cur.Set(v, at)
			moving = v
			r := check(fmt.Sprintf("op %d: move %d to %d", n/2, v, at))
			switch {
			case len(r.Loops) > 0:
				seen["loop"] = true
			case len(r.Blackholes) > 0:
				seen["blackhole"] = true
			case r.LatestArrival < prev.LatestArrival:
				seen["tail shrink"] = true
			case r.LatestArrival > prev.LatestArrival:
				seen["tail growth"] = true
			}
			prev = r
		case 2:
			k.Undo()
			cur, moving = base.Clone(), graph.Invalid
			prev = check(fmt.Sprintf("op %d: undo", n/2))
		case 3:
			if moving == graph.Invalid || !prev.OK() {
				k.Undo()
				cur = base.Clone()
			} else {
				k.Commit()
				base = cur.Clone()
			}
			moving = graph.Invalid
			prev = check(fmt.Sprintf("op %d: commit", n/2))
		}
	}
}

// TestKernelMatchesValidate runs random move, undo and commit sequences on
// random instances, from greedy schedules and from empty ones, against
// Validate, and requires the corpus to reach every situation the fuzz
// corpus names.
func TestKernelMatchesValidate(t *testing.T) {
	seen := map[string]bool{}
	rng := rand.New(rand.NewSource(1))
	runs := 2000
	if testing.Short() {
		runs = 400
	}
	for i := 0; i < runs; i++ {
		in, s := kernelInstance(rng.Int63(), uint8(rng.Intn(256)), i%2 == 0)
		ops := make([]byte, 2*(4+rng.Intn(40)))
		rng.Read(ops)
		runKernelOps(t, in, s, ops, seen)
	}
	for _, what := range []string{"loop", "blackhole", "tail shrink", "tail growth", "move past End", "switch off the path"} {
		if !seen[what] {
			t.Errorf("no run reached %q", what)
		}
	}
}

// FuzzIncrementalValidate holds the kernel to Validate on generated
// instances and operation sequences; the checked-in corpus has one input
// per situation runKernelOps names.
func FuzzIncrementalValidate(f *testing.F) {
	f.Add(int64(5), uint8(4), true, []byte{4, 0, 8, 0, 3, 0}) // more under testdata/fuzz
	f.Fuzz(func(t *testing.T, seed int64, n uint8, greedy bool, ops []byte) {
		in, s := kernelInstance(seed, n, greedy)
		runKernelOps(t, in, s, ops, map[string]bool{})
	})
}
