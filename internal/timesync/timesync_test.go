package timesync

import (
	"testing"
	"testing/quick"

	"github.com/chronus-sdn/chronus/internal/graph"
	"github.com/chronus-sdn/chronus/internal/sim"
)

func nodes(n int) []graph.NodeID {
	out := make([]graph.NodeID, n)
	for i := range out {
		out[i] = graph.NodeID(i)
	}
	return out
}

func TestPerfectClocks(t *testing.T) {
	e := New(Params{Seed: 1, SyncErrorNs: 0, DriftPPB: 0}, nodes(4))
	for _, v := range nodes(4) {
		for _, ref := range []int64{0, 123456789, 99_999_999_999} {
			if off := e.OffsetNs(v, ref); off != 0 {
				t.Fatalf("offset(%d, %d) = %d, want 0", v, ref, off)
			}
		}
		if got := e.ApplyTick(v, 500); got != 500 {
			t.Fatalf("ApplyTick = %d, want 500", got)
		}
	}
}

func TestOffsetBounds(t *testing.T) {
	p := DefaultParams(7)
	e := New(p, nodes(8))
	// Right after a sync the offset is within SyncErrorNs; over an epoch it
	// additionally accumulates at most DriftPPB * interval / 1e9.
	maxDriftNs := p.DriftPPB * p.SyncIntervalNs / 1_000_000_000
	bound := p.SyncErrorNs + maxDriftNs
	for _, v := range nodes(8) {
		for ref := int64(0); ref < 10*p.SyncIntervalNs; ref += p.SyncIntervalNs / 7 {
			off := e.OffsetNs(v, ref)
			if off > bound || off < -bound {
				t.Fatalf("offset(%d, %d) = %d exceeds bound %d", v, ref, off, bound)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := New(DefaultParams(42), nodes(5))
	b := New(DefaultParams(42), nodes(5))
	for _, v := range nodes(5) {
		for _, ref := range []int64{0, 1_234_567, 987_654_321} {
			if a.OffsetNs(v, ref) != b.OffsetNs(v, ref) {
				t.Fatal("same seed, different offsets")
			}
		}
	}
	c := New(DefaultParams(43), nodes(5))
	same := true
	for _, v := range nodes(5) {
		if a.OffsetNs(v, 1_234_567) != c.OffsetNs(v, 1_234_567) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical ensembles")
	}
}

// TestGlobalForLocalInverts: GlobalForLocal inverts local = ref + offset up
// to sub-tick accuracy.
func TestGlobalForLocalInverts(t *testing.T) {
	f := func(seed int64, nodeRaw uint8, refRaw uint32) bool {
		p := DefaultParams(seed)
		p.SyncErrorNs = 50_000 // exaggerate to stress the inversion
		e := New(p, nodes(6))
		v := graph.NodeID(nodeRaw % 6)
		ref := int64(refRaw) * 1000
		local := ref + e.OffsetNs(v, ref)
		back := e.GlobalForLocal(v, local)
		diff := back - ref
		if diff < 0 {
			diff = -diff
		}
		return diff <= 2 // ns-scale fixed-point residue
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestApplyTickShiftsWithCoarseError(t *testing.T) {
	// Sub-half-tick error never moves the applied tick.
	fine := New(Params{Seed: 3, SyncErrorNs: 400_000, SyncIntervalNs: 1_000_000_000}, nodes(4))
	for _, v := range nodes(4) {
		for _, tick := range []sim.Time{10, 100, 999} {
			if got := fine.ApplyTick(v, tick); got != tick {
				t.Fatalf("fine clocks moved tick %d to %d", tick, got)
			}
		}
	}
	// Multi-tick error must move some applied tick.
	coarse := New(Params{Seed: 3, SyncErrorNs: 5 * TickNs, SyncIntervalNs: 1_000_000_000}, nodes(4))
	moved := false
	for _, v := range nodes(4) {
		for tick := sim.Time(1); tick <= 50; tick++ {
			if coarse.ApplyTick(v, tick) != tick {
				moved = true
			}
		}
	}
	if !moved {
		t.Fatal("5-tick sync error never moved an applied tick")
	}
}
