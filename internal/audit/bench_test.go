package audit_test

import (
	"testing"

	"github.com/chronus-sdn/chronus/internal/audit"
	"github.com/chronus-sdn/chronus/internal/controller"
	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/emu"
	"github.com/chronus-sdn/chronus/internal/obs"
	"github.com/chronus-sdn/chronus/internal/scheme"
	"github.com/chronus-sdn/chronus/internal/sim"
	"github.com/chronus-sdn/chronus/internal/topo"
)

// emulationEvents is the stream of one timed chronus update of the
// EmulationTopo flow, executed on virtual sessions — the same stream
// internal/obs's BenchmarkReadJSONL decodes.
func emulationEvents(b *testing.B) []obs.Event {
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
	return tr.Events(0)
}

// BenchmarkAuditReport folds that stream into a report: the reconstruction
// and the emission replay of every `mutp -audit-from` and /audit call.
func BenchmarkAuditReport(b *testing.B) {
	evs := emulationEvents(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := audit.New()
		a.Feed(evs...)
		if r := a.Report(); !r.OK() {
			b.Fatalf("clean update audits dirty:\n%s", r)
		}
	}
}
