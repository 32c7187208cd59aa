package audit

import (
	"testing"

	"github.com/chronus-sdn/chronus/internal/controller"
	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/emu"
	"github.com/chronus-sdn/chronus/internal/obs"
	"github.com/chronus-sdn/chronus/internal/scheme"
	"github.com/chronus-sdn/chronus/internal/sim"
	"github.com/chronus-sdn/chronus/internal/timesync"
	"github.com/chronus-sdn/chronus/internal/topo"
)

// emulationEvents is the stream of one timed chronus update of the
// EmulationTopo flow, executed on virtual sessions after idle ticks of
// provisioned traffic. At 50 it is the stream internal/obs's
// BenchmarkReadJSONL decodes.
func emulationEvents(tb testing.TB, idle sim.Time) []obs.Event {
	tb.Helper()
	in := topo.EmulationTopo()
	tr := obs.NewTracer(obs.TracerOptions{})
	h := controller.NewHarness(in.G)
	h.Net.SetObs(nil, tr)
	c := controller.New(h, controller.Options{Seed: 1, Trace: tr})
	c.AttachAll(nil)
	f := controller.FlowSpec{Name: "f", Path: in.Init, Rate: emu.Rate(in.Demand)}
	if err := c.Provision(f); err != nil {
		tb.Fatal(err)
	}
	h.AdvanceBy(idle)
	now := int64(h.Now())
	res, err := scheme.Solve("chronus", in, scheme.Options{Trace: tr, VT: now})
	if err != nil {
		tb.Fatal(err)
	}
	sched := res.Schedule.Shifted(dynflow.Tick(now) + 50)
	if err := c.ExecuteTimed(in, sched, f); err != nil {
		tb.Fatal(err)
	}
	h.AdvanceTo(sim.Time(sched.End()) + sim.Time(in.Init.Delay(in.G)+in.Fin.Delay(in.G)) + 10)
	return tr.Events(0)
}

// backToBackEvents is exec-paced's stream on virtual sessions: an
// EmulationTopo data plane booted under seed-1 clocks with two
// clock-probe rounds, then updates two-phase updates back to back, each
// under a fresh version tag and its own root span, the flow migrating
// init -> fin -> init -> .... cuts[i] is the stream's length once update
// i has settled.
func backToBackEvents(tb testing.TB, updates int) (evs []obs.Event, cuts []int) {
	tb.Helper()
	in := topo.EmulationTopo()
	nodes := in.G.Nodes()
	tr := obs.NewTracer(obs.TracerOptions{})
	h, c, f, err := controller.Boot(in, "agg", timesync.New(timesync.DefaultParams(1), nodes), controller.Options{Seed: 1, Trace: tr})
	if err != nil {
		tb.Fatal(err)
	}
	now := h.Now()
	for _, at := range []sim.Time{now + 60, now + 120} {
		if err := c.ProbeClocks("clockprobe", at, nodes...); err != nil {
			tb.Fatal(err)
		}
	}
	h.AdvanceBy(200)
	if err := c.DeleteFlow("clockprobe", nodes...); err != nil {
		tb.Fatal(err)
	}
	var seen uint64
	for i := 0; i < updates; i++ {
		if f.Path.Equal(in.Fin) {
			in = &dynflow.Instance{G: in.G, Demand: in.Demand, Init: in.Fin, Fin: in.Init}
		}
		root := tr.StartSpan(int64(h.Now()), "update", 0, obs.A("method", "tp"))
		c.SetSpan(root.SpanID())
		tag := f.Tag + 1
		if err := c.ExecuteTwoPhase(in, f, tag); err != nil {
			tb.Fatal(err)
		}
		h.AdvanceBy(sim.Time(2 * (in.Init.Delay(in.G) + in.Fin.Delay(in.G))))
		c.SetSpan(0)
		root.End(int64(h.Now()), obs.A("outcome", "ok"))
		f.Tag, f.Path = tag, in.Fin
		ps := tr.PageStats(seen, 0)
		seen = ps.Next
		evs = append(evs, ps.Events...)
		cuts = append(cuts, len(evs))
	}
	return evs, cuts
}

// reportSink keeps the benchmarked reports live.
var reportSink *Report

// BenchmarkAuditReport folds that stream into a report: the reconstruction
// and the emission replay of every `mutp -audit-from` and /audit call.
func BenchmarkAuditReport(b *testing.B) { benchAuditReport(b, 50) }

// BenchmarkAuditReportIdle is BenchmarkAuditReport after 2 000 ticks of
// steady traffic instead of 50.
func BenchmarkAuditReportIdle(b *testing.B) { benchAuditReport(b, 2000) }

func benchAuditReport(b *testing.B, idle sim.Time) {
	evs := emulationEvents(b, idle)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := New()
		a.Feed(evs...)
		if r := a.Report(); !r.OK() {
			b.Fatalf("clean update audits dirty:\n%s", r)
		}
	}
}

// BenchmarkAuditReportBackToBack is exec-paced's audit fold: one auditor
// takes 30 back-to-back two-phase EmulationTopo updates, each fed once it
// has settled and followed by a Report.
func BenchmarkAuditReportBackToBack(b *testing.B) {
	evs, cuts := backToBackEvents(b, 30)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := New()
		prev := 0
		for _, cut := range cuts {
			a.Feed(evs[prev:cut]...)
			prev = cut
			reportSink = a.Report()
		}
	}
}
