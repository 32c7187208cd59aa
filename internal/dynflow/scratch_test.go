package dynflow

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"github.com/chronus-sdn/chronus/internal/graph"
)

// sharedRun is what one pass of the validator over a shared Instance
// reports: Validate on a clean and a congesting schedule, ValidateJoint of
// the two (the instance twice in one call), and a Kernel's verdict and
// slack on the clean one.
type sharedRun struct {
	clean, congested *Report
	joint            *JointReport
	ok               bool
	latest           Tick
	slack            []Tick
}

func validateShared(in *Instance, clean, congested *Schedule) sharedRun {
	r := sharedRun{clean: Validate(in, clean), congested: Validate(in, congested)}
	r.joint, _ = ValidateJoint([]FlowUpdate{{Name: "clean", In: in, S: clean}, {Name: "congested", In: in, S: congested}})
	k := NewKernel(in, clean)
	defer k.Release()
	r.ok, r.latest = k.Check()
	for _, v := range in.UpdateSet() {
		r.slack = append(r.slack, k.Slack(v, clean.Times[v], 6))
	}
	return r
}

// TestSharedInstanceConcurrentValidation: the validator keeps no state on
// an Instance but its path index, so once that is built, Validate,
// ValidateJoint and the Kernel may run on one Instance from several
// goroutines, each seeing what a serial pass sees. Run it under -race.
func TestSharedInstanceConcurrentValidation(t *testing.T) {
	in := fig1(t)
	clean, congested := paperSchedule(in), congestingSchedule(in)
	want := validateShared(in, clean, congested) // builds the path index
	if !want.clean.OK() || want.congested.OK() || want.joint.OK() || !want.ok {
		t.Fatalf("fixture: clean %s, congested %s, joint %s, kernel ok %v",
			want.clean.Summary(), want.congested.Summary(), want.joint.Summary(), want.ok)
	}
	const workers, passes = 4, 50
	var wg sync.WaitGroup
	failed := make([]bool, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range passes {
				if got := validateShared(in, clean, congested); !reflect.DeepEqual(got, want) {
					failed[w] = true
					return
				}
			}
		}()
	}
	wg.Wait()
	for w, f := range failed {
		if f {
			t.Errorf("goroutine %d: a concurrent pass reported differently from the serial one", w)
		}
	}
}

// TestPooledScratchHoldsNoInstance: a scratch goes back to the pool
// without the Instances its tracers were compiled from, so the pool never
// keeps a graph alive.
func TestPooledScratchHoldsNoInstance(t *testing.T) {
	in := fig1(t)
	validateShared(in, paperSchedule(in), congestingSchedule(in))
	scratchPool.Lock()
	defer scratchPool.Unlock()
	if len(scratchPool.free) == 0 {
		t.Fatal("fixture: no scratch was returned to the pool")
	}
	for _, x := range scratchPool.free {
		for i, tr := range x.trs[:cap(x.trs)] {
			if tr.in != nil {
				t.Fatalf("a pooled scratch's tracer %d still points at an Instance", i)
			}
		}
	}
}

// TestCompileOverUsedStorage: a tracer compiled into storage that earlier
// calls used, for a wider and a narrower footprint, equals one compiled
// into empty storage.
func TestCompileOverUsedStorage(t *testing.T) {
	wide := fig1(t)
	g := wide.G
	narrow := &Instance{G: g, Demand: 1,
		Init: graph.Path{g.Lookup("v3"), g.Lookup("v4"), g.Lookup("v5"), g.Lookup("v6")},
		Fin:  graph.Path{g.Lookup("v3"), g.Lookup("v2"), g.Lookup("v6")}}
	var used tracer
	for i, in := range []*Instance{wide, narrow, wide, narrow} {
		used.compile(in)
		var fresh tracer
		fresh.compile(in)
		if used.in != fresh.in || used.lo != fresh.lo || used.maxTrace != fresh.maxTrace ||
			!slices.Equal(used.links, fresh.links) || !slices.Equal(used.rules, fresh.rules) || len(used.visit) != len(fresh.visit) {
			t.Fatalf("compile %d over used storage: lo %d, maxTrace %d, links %v, rules %v; fresh: lo %d, maxTrace %d, links %v, rules %v",
				i, used.lo, used.maxTrace, used.links, used.rules, fresh.lo, fresh.maxTrace, fresh.links, fresh.rules)
		}
	}
}
