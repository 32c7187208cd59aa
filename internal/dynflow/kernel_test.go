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

// slackWalk is Kernel.Slack without its periodic exit, the oracle the exit
// is held to: delay v one tick at a time, up to the horizon, until a step
// fails to validate clean.
func slackWalk(k *dynflow.Kernel, v graph.NodeID, tv, horizon dynflow.Tick) dynflow.Tick {
	defer k.Undo()
	for d := dynflow.Tick(1); d <= horizon; d++ {
		k.Move(v, tv+d)
		if ok, _ := k.Check(); !ok {
			return d - 1
		}
	}
	return horizon
}

// slackHorizon is the cap core.ScheduleSlack walks to (autoMaxTicks): one
// drain of the graph per update switch and one more, plus the initial path.
func slackHorizon(in *dynflow.Instance) dynflow.Tick {
	maxDelay := graph.Delay(1)
	for v := 0; v < in.G.NumNodes(); v++ {
		for _, l := range in.G.Out(graph.NodeID(v)) {
			maxDelay = max(maxDelay, l.Delay)
		}
	}
	drain := dynflow.Tick(int64(maxDelay) * int64(in.G.NumNodes()+1))
	return dynflow.Tick(len(in.UpdateSet())+1)*drain + dynflow.Tick(in.Init.Delay(in.G)) + 4
}

// slackExitAgainstWalk holds Kernel.Slack to slackWalk for every switch of a
// clean schedule, both on one kernel, and returns how many switches report
// the horizon.
func slackExitAgainstWalk(t *testing.T, label string, in *dynflow.Instance, s *dynflow.Schedule) (capped int) {
	t.Helper()
	k := dynflow.NewKernel(in, s)
	defer k.Release()
	if ok, _ := k.Check(); !ok {
		t.Fatalf("%s: the schedule must validate clean", label)
	}
	horizon := slackHorizon(in)
	for v, tv := range s.Times {
		got, want := k.Slack(v, tv, horizon), slackWalk(k, v, tv, horizon)
		if got != want {
			t.Errorf("%s: switch %d at %d: Slack = %d, the walk %d (horizon %d)", label, v, tv, got, want, horizon)
		}
		if want == horizon {
			capped++
		}
	}
	return capped
}

// TestSlackExitMatchesWalk holds the periodic exit of Kernel.Slack to the
// walk to the horizon on greedy schedules of random instances, on the same
// schedules stretched threefold (room in them, so more switches reach the
// cap), and on fig1 and the emulation topology.
func TestSlackExitMatchesWalk(t *testing.T) {
	// The walk is the slow side (about ten times slower under -race), so
	// -short runs a tenth of the corpus.
	count := 300
	if testing.Short() {
		count = 30
	}
	capped := 0
	for _, n := range []int{6, 10, 16, 24} {
		done := 0
		for seed := int64(0); done < count; seed++ {
			if seed > int64(40*count) {
				t.Fatalf("n=%d: only %d feasible instances in %d draws", n, done, seed)
			}
			in := topo.RandomInstance(rand.New(rand.NewSource(seed<<8+int64(n))), topo.DefaultRandomParams(n))
			res, err := core.Greedy(in, core.Options{Mode: core.ModeExact})
			if err != nil {
				continue
			}
			done++
			label := fmt.Sprintf("n=%d seed=%d", n, seed)
			s := res.Schedule
			capped += slackExitAgainstWalk(t, label, in, s)
			loose := dynflow.NewSchedule(s.Start + 5)
			for v, tv := range s.Times {
				loose.Set(v, loose.Start+3*(tv-s.Start))
			}
			if dynflow.Validate(in, loose).OK() {
				capped += slackExitAgainstWalk(t, label+" stretched", in, loose)
			}
		}
	}
	fig1 := topo.Fig1Example()
	capped += slackExitAgainstWalk(t, "fig1 paper", fig1, topo.PaperSchedule(fig1))
	for name, in := range map[string]*dynflow.Instance{"fig1": fig1, "emulation": topo.EmulationTopo()} {
		res, err := core.Greedy(in, core.Options{Mode: core.ModeExact})
		if err != nil {
			t.Fatal(err)
		}
		capped += slackExitAgainstWalk(t, name, in, res.Schedule)
	}
	if capped == 0 {
		t.Error("no switch reached the horizon: the exit was never taken")
	}
}
