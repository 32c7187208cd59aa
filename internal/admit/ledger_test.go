package admit

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/graph"
	"github.com/chronus-sdn/chronus/internal/obs"
)

// diamond builds one two-path pod: src -> top -> dst and
// src -> bot -> dst, every link with capacity cap and delay 1.
func diamond(t *testing.T, cap graph.Capacity) (*graph.Graph, graph.Path, graph.Path) {
	t.Helper()
	g := graph.New()
	ids := g.AddNodes("s", "a", "b", "t")
	s, a, b, d := ids[0], ids[1], ids[2], ids[3]
	for _, l := range [][2]graph.NodeID{{s, a}, {a, d}, {s, b}, {b, d}} {
		if err := g.AddLink(l[0], l[1], cap, 1); err != nil {
			t.Fatal(err)
		}
	}
	return g, graph.Path{s, a, d}, graph.Path{s, b, d}
}

func TestLedgerReserveAllOrNothing(t *testing.T) {
	g, top, bot := diamond(t, 10)
	l := NewLedger(g, nil)
	fp := FootprintOf(g, top, bot, 6)
	if err := l.Reserve(1, fp); err != nil {
		t.Fatalf("first reserve: %v", err)
	}
	// A second 6-unit hold does not fit on any shared link (6+6 > 10);
	// the refusal must leave no partial debit behind.
	before := l.Utilization()
	if err := l.Reserve(2, fp); err == nil {
		t.Fatal("second overlapping reserve succeeded; want saturation error")
	}
	if after := l.Utilization(); after != before {
		t.Fatalf("failed reserve left a partial debit: %+v -> %+v", before, after)
	}
	// A disjoint single-path hold that fits must still be admitted.
	if err := l.Reserve(3, FootprintOf(g, top, top, 4)); err != nil {
		t.Fatalf("fitting reserve refused: %v", err)
	}
}

func TestLedgerCreditsRestoreExactly(t *testing.T) {
	g, top, bot := diamond(t, 100)
	l := NewLedger(g, nil)
	for id := uint64(1); id <= 10; id++ {
		if err := l.Reserve(id, FootprintOf(g, top, bot, 7)); err != nil {
			t.Fatalf("reserve %d: %v", id, err)
		}
	}
	for id := uint64(1); id <= 10; id++ {
		l.Release(id)
		l.Release(id) // double release must be a no-op
	}
	u := l.Utilization()
	if u.ReservedUnits != 0 || u.ReservedLinks != 0 || u.Holds != 0 || u.MaxLinkPct != 0 {
		t.Fatalf("ledger not restored after full release: %+v", u)
	}
	// The residual with nothing held must equal the original capacities.
	res := l.Residual()
	for _, lk := range g.Links() {
		r, ok := res.Link(lk.From, lk.To)
		if !ok || r.Cap != lk.Cap {
			t.Fatalf("residual link %d->%d cap %d, want %d", lk.From, lk.To, r.Cap, lk.Cap)
		}
	}
}

func TestLedgerResidualExcludesOwnHold(t *testing.T) {
	g, top, bot := diamond(t, 10)
	l := NewLedger(g, nil)
	if err := l.Reserve(1, FootprintOf(g, top, bot, 6)); err != nil {
		t.Fatal(err)
	}
	// Excluding the hold restores full capacity for its own planner...
	res := l.Residual(1)
	lk, _ := res.Link(top[0], top[1])
	if lk.Cap != 10 {
		t.Fatalf("own residual cap %d, want 10", lk.Cap)
	}
	// ...while everyone else plans against the debited graph.
	res = l.Residual()
	lk, _ = res.Link(top[0], top[1])
	if lk.Cap != 4 {
		t.Fatalf("foreign residual cap %d, want 4", lk.Cap)
	}
}

// TestLedgerConcurrentReserveNeverOvercommits hammers one shared
// bottleneck from many goroutines under -race: at no instant may the
// holders of successful reservations exceed the link capacity, and the
// ledger's own overcommit self-check must stay zero.
func TestLedgerConcurrentReserveNeverOvercommits(t *testing.T) {
	const (
		cap     = 10
		demand  = 3
		workers = 32
		rounds  = 200
	)
	g, top, bot := diamond(t, cap)
	reg := obs.NewRegistry()
	l := NewLedger(g, reg)

	var holders atomic.Int64
	var worst atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				id := uint64(w*rounds + r + 1)
				if err := l.Reserve(id, FootprintOf(g, top, bot, demand)); err != nil {
					continue
				}
				n := holders.Add(1)
				for {
					old := worst.Load()
					if n <= old || worst.CompareAndSwap(old, n) {
						break
					}
				}
				holders.Add(-1)
				l.Release(id)
			}
		}(w)
	}
	wg.Wait()

	if max := worst.Load(); max*demand > cap {
		t.Fatalf("%d concurrent holds of %d units on a %d-unit link: over-committed", max, demand, cap)
	}
	if v := reg.Counter("chronus_admit_ledger_overcommit_total").Value(); v != 0 {
		t.Fatalf("ledger overcommit self-check fired %d times", v)
	}
	if u := l.Utilization(); u.ReservedUnits != 0 || u.Holds != 0 {
		t.Fatalf("ledger dirty after all releases: %+v", u)
	}
}

// TestLedgerAdmissionsJointlyValid is the property test against the
// joint validator: whatever set of concurrently-held plan-only updates
// the engine admits (ledger reservations all open at once), the batch
// layer's joint validator must confirm the combination violation-free
// on the real graph. The ledger is allowed to be conservative — refuse
// combinations the validator would pass — but never the reverse.
func TestLedgerAdmissionsJointlyValid(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 25; iter++ {
		g, top, bot := diamond(t, 10)
		e := New(g, Options{Window: 8})
		type sub struct {
			id     uint64
			demand graph.Capacity
			init   graph.Path
			fin    graph.Path
		}
		var subs []sub
		for i := 0; i < 6; i++ {
			d := graph.Capacity(1 + rng.Intn(5))
			init, fin := top, bot
			if rng.Intn(2) == 0 {
				init, fin = bot, top
			}
			id, err := e.Submit(Request{
				Tenant: "prop", Flow: "f", Demand: d,
				Init: init, Fin: fin, Hold: true,
			})
			if err != nil {
				t.Fatalf("iter %d: submit: %v", iter, err)
			}
			subs = append(subs, sub{id, d, init, fin})
		}
		e.Drain()
		var joint []dynflow.FlowUpdate
		for _, s := range subs {
			v, ok := e.View(s.id)
			if !ok {
				t.Fatalf("iter %d: update %d vanished", iter, s.id)
			}
			if v.State != string(StateExecuting) {
				continue // refused: the ledger was conservative, which is allowed
			}
			u := e.updates[s.id]
			if u.Schedule == nil {
				t.Fatalf("iter %d: held update %d has no schedule", iter, s.id)
			}
			joint = append(joint, dynflow.FlowUpdate{
				Name: fmt.Sprintf("u%d", s.id),
				In:   &dynflow.Instance{G: g, Demand: s.demand, Init: s.init, Fin: s.fin},
				S:    u.Schedule,
			})
		}
		if len(joint) == 0 {
			continue
		}
		report, err := dynflow.ValidateJoint(joint)
		if err != nil {
			t.Fatalf("iter %d: joint validation: %v", iter, err)
		}
		if !report.OK() {
			t.Fatalf("iter %d: ledger admitted a jointly-invalid set of %d holds: %s",
				iter, len(joint), report.Summary())
		}
	}
}
