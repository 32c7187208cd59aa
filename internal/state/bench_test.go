package state

import (
	"os"
	"testing"

	"github.com/chronus-sdn/chronus/internal/obs"
)

// emulationFixture is one timed chronus update of the EmulationTopo flow
// as a trace, the stream internal/obs's BenchmarkReadJSONL decodes.
const emulationFixture = "../obs/testdata/emulation.jsonl"

func readFixture(tb testing.TB) []obs.Event {
	tb.Helper()
	f, err := os.Open(emulationFixture)
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	var evs []obs.Event
	if _, err := obs.ReadJSONL(f, false, func(e obs.Event) error {
		evs = append(evs, e)
		return nil
	}); err != nil {
		tb.Fatal(err)
	}
	return evs
}

// foldFixture folds evs into a fresh store and builds both bodies: the
// state fold of one executed update.
func foldFixture(evs []obs.Event) (StateSnapshot, DriftReport) {
	s := New(Options{})
	s.Prefeed(evs)
	return s.StateBody(-1), s.DriftBody()
}

// BenchmarkStateFold is the state store's share of an executed update:
// the fixture prefed into a fresh store, then GET /state and GET /drift.
func BenchmarkStateFold(b *testing.B) {
	evs := readFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if snap, _ := foldFixture(evs); len(snap.Switches) == 0 {
			b.Fatal("the fold observed no switch")
		}
	}
}

// stateFoldAllocCeiling bounds the allocations of foldFixture: 130 on
// the per-key records, so a margin of 13 (10 %). The three maps per
// switch they replaced took 189.
const stateFoldAllocCeiling = 143

// TestStateFoldAllocs holds the state fold of one update to its
// allocation ceiling.
func TestStateFoldAllocs(t *testing.T) {
	evs := readFixture(t)
	if n := testing.AllocsPerRun(20, func() { foldFixture(evs) }); n > stateFoldAllocCeiling {
		t.Errorf("the state fold of %s takes %.0f allocations, the ceiling is %d", emulationFixture, n, stateFoldAllocCeiling)
	}
}
