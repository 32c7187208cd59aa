package topo

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/chronus-sdn/chronus/internal/dynflow"
)

func TestLine(t *testing.T) {
	g, ids := Line(5, 10, 2)
	if g.NumNodes() != 5 || g.NumLinks() != 4 {
		t.Fatalf("line(5): %v", g)
	}
	for i := 0; i+1 < 5; i++ {
		l, ok := g.Link(ids[i], ids[i+1])
		if !ok || l.Cap != 10 || l.Delay != 2 {
			t.Fatalf("link %d: %+v ok=%v", i, l, ok)
		}
	}
}

func TestFig1ExampleValid(t *testing.T) {
	in := Fig1Example()
	if err := in.Validate(); err != nil {
		t.Fatalf("Fig1Example invalid: %v", err)
	}
	if got := len(in.UpdateSet()); got != 5 {
		t.Fatalf("update set size = %d, want 5", got)
	}
	s := PaperSchedule(in)
	if r := dynflow.Validate(in, s); !r.OK() {
		t.Fatalf("paper schedule rejected: %s", r.Summary())
	}
	if s.Makespan() != 3 {
		t.Fatalf("paper schedule makespan = %d, want 3", s.Makespan())
	}
}

func TestEmulationTopoValid(t *testing.T) {
	in := EmulationTopo()
	if err := in.Validate(); err != nil {
		t.Fatalf("EmulationTopo invalid: %v", err)
	}
	if in.G.NumNodes() != 10 {
		t.Fatalf("nodes = %d, want 10", in.G.NumNodes())
	}
	if in.Demand != EmulationCapacityMbps {
		t.Fatalf("demand = %d, want %d", in.Demand, EmulationCapacityMbps)
	}
	// Every link delay within the paper's stated range (5ms..1s).
	for _, l := range in.G.Links() {
		if l.Delay < 5 || l.Delay > 1000 {
			t.Fatalf("delay %d out of range on %s->%s", l.Delay, in.G.Name(l.From), in.G.Name(l.To))
		}
	}
	// The naive simultaneous update must misbehave (that is the point of
	// the Fig. 6 experiment).
	flip := dynflow.NewSchedule(0)
	for _, v := range in.UpdateSet() {
		flip.Set(v, 0)
	}
	if r := dynflow.Validate(in, flip); r.OK() {
		t.Fatal("simultaneous flip of the emulation topology is clean; experiment would be vacuous")
	}
}

func TestRandomInstanceValid(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		in := RandomInstance(rng, DefaultRandomParams(12))
		if err := in.Validate(); err != nil {
			t.Fatalf("instance %d invalid: %v", i, err)
		}
		if in.Init.Equal(in.Fin) {
			t.Fatalf("instance %d: identical paths", i)
		}
		if in.Init.Source() != in.Fin.Source() || in.Init.Dest() != in.Fin.Dest() {
			t.Fatalf("instance %d: endpoint mismatch", i)
		}
	}
}

func TestRandomInstanceProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := 3 + int(nRaw%40)
		rng := rand.New(rand.NewSource(seed))
		in := RandomInstance(rng, DefaultRandomParams(n))
		if in.G.NumNodes() != n {
			return false
		}
		if err := in.Validate(); err != nil {
			return false
		}
		// All delays within [1, MaxDelay], all capacities in {d, 2d}.
		p := DefaultRandomParams(n)
		for _, l := range in.G.Links() {
			if l.Delay < 1 || l.Delay > p.MaxDelay {
				return false
			}
			if l.Cap != p.Demand && l.Cap != 2*p.Demand {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomInstanceDeterministic(t *testing.T) {
	a := RandomInstance(rand.New(rand.NewSource(7)), DefaultRandomParams(15))
	b := RandomInstance(rand.New(rand.NewSource(7)), DefaultRandomParams(15))
	if !a.Fin.Equal(b.Fin) {
		t.Fatal("same seed produced different final paths")
	}
	if a.G.NumLinks() != b.G.NumLinks() {
		t.Fatal("same seed produced different graphs")
	}
}

// TestRandomInstances: successive draws from one rng are independent
// instances, not repeats.
func TestRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ins := make([]*dynflow.Instance, 7)
	for i := range ins {
		ins[i] = RandomInstance(rng, DefaultRandomParams(10))
	}
	distinct := false
	for i := 1; i < len(ins); i++ {
		if !ins[i].Fin.Equal(ins[0].Fin) {
			distinct = true
		}
	}
	if !distinct {
		t.Fatal("all generated instances identical")
	}
}

func TestRandomInstancePanicsOnTinyN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for N=2")
		}
	}()
	RandomInstance(rand.New(rand.NewSource(1)), RandomParams{N: 2})
}
