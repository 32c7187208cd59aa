package journal_test

import (
	"testing"

	"github.com/chronus-sdn/chronus/internal/controller"
	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/emu"
	"github.com/chronus-sdn/chronus/internal/journal"
	"github.com/chronus-sdn/chronus/internal/obs"
	"github.com/chronus-sdn/chronus/internal/scheme"
	"github.com/chronus-sdn/chronus/internal/sim"
	"github.com/chronus-sdn/chronus/internal/topo"
)

// readUpdates is how many timed updates the read benchmark journals:
// enough that span and xid ids run to thousands of distinct strings.
const readUpdates = 20

// updatesJournal journals readUpdates timed chronus updates of the
// EmulationTopo flow into dir, each on its own virtual data plane but
// all through one tracer, so span ids keep counting up across them.
func updatesJournal(b *testing.B, dir string) {
	b.Helper()
	w, err := journal.Open(journal.Options{Dir: dir, Fsync: journal.FsyncNever})
	if err != nil {
		b.Fatal(err)
	}
	tr := obs.NewTracer(obs.TracerOptions{Sink: w})
	for k := 0; k < readUpdates; k++ {
		in := topo.EmulationTopo()
		h := controller.NewHarness(in.G)
		h.Net.SetObs(nil, tr)
		c := controller.New(h, controller.Options{Seed: int64(k + 1), Trace: tr})
		c.AttachAll(nil)
		f := controller.FlowSpec{Name: "f", Path: in.Init, Rate: emu.Rate(in.Demand)}
		if err := c.Provision(f); err != nil {
			b.Fatal(err)
		}
		h.AdvanceBy(50)
		now := int64(h.Now())
		res, err := scheme.Solve("chronus", in, scheme.Options{Trace: tr, VT: now})
		if err != nil {
			b.Fatal(err)
		}
		sched := res.Schedule.Shifted(dynflow.Tick(now) + 50)
		if err := c.ExecuteTimed(in, sched, f); err != nil {
			b.Fatal(err)
		}
		h.AdvanceTo(sim.Time(sched.End()) + sim.Time(in.Init.Delay(in.G)+in.Fin.Delay(in.G)) + 10)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkJournalReadAll is the journal's share of an offline replay
// (`mutp -audit-from`, the daemon's boot prefeed): ReadAll of a
// readUpdates-update journal, per event decoded.
func BenchmarkJournalReadAll(b *testing.B) {
	dir := b.TempDir()
	updatesJournal(b, dir)
	evs, _, err := journal.ReadAll(dir, 0)
	if err != nil || len(evs) == 0 {
		b.Fatalf("journal of %d events: %v", len(evs), err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if evs, _, err = journal.ReadAll(dir, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	perEvent := float64(b.N * len(evs))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perEvent, "ns/event")
	b.ReportMetric(float64(testing.AllocsPerRun(1, func() { _, _, _ = journal.ReadAll(dir, 0) }))/float64(len(evs)), "allocs/event")
}
