package obs_test

import (
	"bytes"
	"testing"

	"github.com/chronus-sdn/chronus/internal/controller"
	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/emu"
	"github.com/chronus-sdn/chronus/internal/obs"
	"github.com/chronus-sdn/chronus/internal/scheme"
	"github.com/chronus-sdn/chronus/internal/sim"
	"github.com/chronus-sdn/chronus/internal/topo"
)

// emulationJournal is the journal of one timed chronus update of the
// EmulationTopo flow, executed on virtual sessions: the event mix
// `mutp -audit-from` and the daemon's boot prefeed read back.
func emulationJournal(b *testing.B) []byte {
	b.Helper()
	in := topo.EmulationTopo()
	tr := obs.NewTracer(obs.TracerOptions{})
	h := controller.NewHarness(in.G)
	h.Net.SetObs(nil, tr)
	c := controller.New(h, controller.Options{Seed: 1, Trace: tr})
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
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf, 0); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkReadJSONL decodes that journal through the one line reader.
func BenchmarkReadJSONL(b *testing.B) {
	data := emulationJournal(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	events := 0
	for i := 0; i < b.N; i++ {
		if _, err := obs.ReadJSONL(bytes.NewReader(data), false, func(obs.Event) error {
			events++
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkTracerPage is a cursor fold's read of a long-lived ring: 30
// updates' worth of events retained, paged from where the previous read
// stopped, which leaves the last update's events.
func BenchmarkTracerPage(b *testing.B) {
	const perUpdate = 335
	tr := obs.NewTracer(obs.TracerOptions{})
	for i := 0; i < 30*perUpdate; i++ {
		tr.Point(int64(i), obs.EvEmuRate, obs.A(obs.KeyLink, "v1>v2"), obs.A(obs.KeyRate, i))
	}
	since := tr.PageStats(0, 0).Next - perUpdate
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ps := tr.PageStats(since, 0); len(ps.Events) != perUpdate {
			b.Fatalf("page of %d events, want %d", len(ps.Events), perUpdate)
		}
	}
}
