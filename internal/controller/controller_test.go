package controller

import (
	"strings"
	"testing"

	"github.com/chronus-sdn/chronus/internal/baseline"
	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/emu"
	"github.com/chronus-sdn/chronus/internal/graph"
	"github.com/chronus-sdn/chronus/internal/obs"
	"github.com/chronus-sdn/chronus/internal/sim"
	"github.com/chronus-sdn/chronus/internal/timesync"
	"github.com/chronus-sdn/chronus/internal/topo"
)

func setupFig1(t *testing.T, seed int64) (*dynflow.Instance, *Harness, *Controller, FlowSpec) {
	t.Helper()
	in := topo.Fig1Example()
	h := NewHarness(in.G)
	c := New(h, Options{Seed: seed})
	c.AttachAll(nil)
	f := FlowSpec{Name: "f0", Tag: 0, Path: in.Init, Rate: 1}
	if err := c.Provision(f); err != nil {
		t.Fatalf("Provision: %v", err)
	}
	return in, h, c, f
}

func noOverloads(t *testing.T, h *Harness) {
	t.Helper()
	for _, l := range h.Net.Links() {
		if c := l.OverloadCount(); c > 0 {
			t.Fatalf("link %s->%s overloaded %d times",
				h.G.Name(l.From()), h.G.Name(l.To()), c)
		}
	}
}

func totalDrops(h *Harness) float64 {
	var drops float64
	for _, id := range h.G.Nodes() {
		drops += h.Net.Switch(id).Dropped()
	}
	return drops
}

func TestProvisionDelivers(t *testing.T) {
	in, h, _, _ := setupFig1(t, 1)
	h.AdvanceTo(200)
	dst := h.Net.Switch(in.Dest())
	if dst.Delivered() == 0 {
		t.Fatal("no traffic delivered after provisioning")
	}
	if drops := totalDrops(h); drops != 0 {
		t.Fatalf("drops = %f during provisioning (rules must install dest-first)", drops)
	}
	noOverloads(t, h)
}

func TestExecuteTimedPaperSchedule(t *testing.T) {
	in, h, c, f := setupFig1(t, 2)
	h.AdvanceTo(100)
	// Shift the paper schedule to absolute ticks comfortably after the
	// control latency.
	s := dynflow.NewSchedule(150)
	for v, tv := range topo.PaperSchedule(in).Times {
		s.Set(v, 150+tv)
	}
	if err := c.ExecuteTimed(in, s, f); err != nil {
		t.Fatalf("ExecuteTimed: %v", err)
	}
	h.AdvanceTo(300)
	noOverloads(t, h)
	if drops := totalDrops(h); drops != 0 {
		t.Fatalf("drops = %f during timed update", drops)
	}
	// Traffic now flows the final path: the (v1,v5) link carries rate 1.
	l := h.Net.Link(in.G.Lookup("v1"), in.G.Lookup("v5"))
	if l.Rate() != 1 {
		t.Fatalf("final path not active: (v1,v5) rate = %d", l.Rate())
	}
}

func TestExecuteTimedRespectsClockError(t *testing.T) {
	// With a deliberately broken clock ensemble (±20 tick error), the same
	// safe schedule is executed at wrong instants; on the tight reversal
	// topology this must show up as overloads or drops for some seed.
	in := topo.Fig1Example()
	violated := false
	for seed := int64(0); seed < 8 && !violated; seed++ {
		h := NewHarness(in.G)
		c := New(h, Options{Seed: seed})
		ens := newCoarseEnsemble(seed, in)
		c.AttachAll(ens)
		f := FlowSpec{Name: "f0", Tag: 0, Path: in.Init, Rate: 1}
		if err := c.Provision(f); err != nil {
			t.Fatal(err)
		}
		h.AdvanceTo(100)
		s := dynflow.NewSchedule(150)
		for v, tv := range topo.PaperSchedule(in).Times {
			s.Set(v, 150+tv)
		}
		if err := c.ExecuteTimed(in, s, f); err != nil {
			t.Fatal(err)
		}
		h.AdvanceTo(400)
		if h.Net.CongestedLinks() > 0 || totalDrops(h) > 0 {
			violated = true
		}
	}
	if !violated {
		t.Fatal("±20-tick clock error never perturbed the schedule; ablation would be vacuous")
	}
}

func TestExecuteBarrierPacedORShowsTransients(t *testing.T) {
	// Replay OR rounds through the literal Algorithm 5 loop with control
	// latency: the intra-round asynchrony must violate on some seed.
	in := topo.Fig1Example()
	rounds, err := baseline.ORGreedy(in)
	if err != nil {
		t.Fatal(err)
	}
	violated := false
	for seed := int64(0); seed < 10 && !violated; seed++ {
		h := NewHarness(in.G)
		c := New(h, Options{Seed: seed, MinLatency: 1, MaxLatency: 6})
		c.AttachAll(nil)
		f := FlowSpec{Name: "f0", Tag: 0, Path: in.Init, Rate: 1}
		if err := c.Provision(f); err != nil {
			t.Fatal(err)
		}
		h.AdvanceTo(100)
		s := baseline.ORSchedule(rounds, baseline.ORScheduleOptions{Start: 0, RoundWidth: 1})
		if err := c.ExecuteBarrierPaced(in, s, f, 1); err != nil {
			t.Fatal(err)
		}
		h.AdvanceBy(100)
		if h.Net.CongestedLinks() > 0 || totalDrops(h) > 0 {
			violated = true
		}
	}
	if !violated {
		t.Fatal("OR replay never violated; Fig. 6 would be vacuous")
	}
}

func TestExecuteTwoPhase(t *testing.T) {
	in, h, c, f := setupFig1(t, 3)
	h.AdvanceTo(100)
	if err := c.ExecuteTwoPhase(in, f, 2); err != nil {
		t.Fatalf("ExecuteTwoPhase: %v", err)
	}
	h.AdvanceBy(50)
	noOverloads(t, h)
	if drops := totalDrops(h); drops != 0 {
		t.Fatalf("drops = %f during two-phase", drops)
	}
	// New path active under the new tag; old rules garbage-collected.
	l := h.Net.Link(in.G.Lookup("v1"), in.G.Lookup("v5"))
	if l.Rate() != 1 {
		t.Fatalf("final path not active: rate = %d", l.Rate())
	}
	v3 := h.Net.Switch(in.G.Lookup("v3"))
	for _, r := range v3.DumpRules() {
		if r.Key.Tag == 0 {
			t.Fatalf("old-version rule survived cleanup: %+v", r)
		}
	}
}

func TestSampleLinkMeasuresRate(t *testing.T) {
	in, h, c, _ := setupFig1(t, 4)
	h.AdvanceTo(100)
	samples, err := c.SampleLink(in.G.Lookup("v1"), in.G.Lookup("v2"), 50, 5)
	if err != nil {
		t.Fatalf("SampleLink: %v", err)
	}
	if len(samples) != 5 {
		t.Fatalf("samples = %d, want 5", len(samples))
	}
	for _, s := range samples {
		// Steady state at rate 1: each counter delta is divided by the span
		// between its two reads, whatever the polling jitter.
		if s.Rate != 1 {
			t.Fatalf("sample at %d = %f, want 1", s.At, s.Rate)
		}
	}
}

func TestFlowModErrorSurfacesAtBarrier(t *testing.T) {
	in, _, c, f := setupFig1(t, 5)
	// Point v1 at a non-adjacent switch.
	bad := dynflow.NewSchedule(50)
	bad.Set(in.G.Lookup("v1"), 50)
	badIn := *in
	badIn.Fin = graph.Path{in.G.Lookup("v1"), in.G.Lookup("v3"), in.G.Lookup("v6")}
	err := c.ExecuteTimed(&badIn, bad, f)
	if err == nil || !strings.Contains(err.Error(), "no port") {
		t.Fatalf("err = %v, want port error", err)
	}
}

func TestBarrierUnknownSwitch(t *testing.T) {
	_, _, c, _ := setupFig1(t, 6)
	if err := c.Barrier(graph.NodeID(99)); err == nil {
		t.Fatal("barrier to unknown switch succeeded")
	}
}

// newCoarseEnsemble builds a clock ensemble with ±20 tick sync error for
// the clock-skew test.
func newCoarseEnsemble(seed int64, in *dynflow.Instance) *timesync.Ensemble {
	return timesync.New(timesync.Params{
		Seed:           seed,
		SyncIntervalNs: 1_000_000_000,
		SyncErrorNs:    20 * timesync.TickNs,
	}, in.G.Nodes())
}

var _ = sim.Time(0)
var _ = emu.Rate(0)

func TestProbeClocksEmitsSkewSamplesWithoutTraffic(t *testing.T) {
	in := topo.Fig1Example()
	h := NewHarness(in.G)
	tr := obs.NewTracer(obs.TracerOptions{})
	c := New(h, Options{Seed: 3, Trace: tr})
	c.AttachAll(newCoarseEnsemble(3, in))
	f := FlowSpec{Name: "f0", Tag: 0, Path: in.Init, Rate: 1}
	if err := c.Provision(f); err != nil {
		t.Fatal(err)
	}
	h.AdvanceTo(100)
	before := totalDrops(h)
	if err := c.ProbeClocks("clockprobe", 160, in.G.Nodes()...); err != nil {
		t.Fatalf("ProbeClocks: %v", err)
	}
	h.AdvanceTo(300)
	// Every switch fired its probe: one sw.apply per node, each tagged
	// with the probe flow, and the data plane is untouched.
	applies := map[string]bool{}
	for _, ev := range tr.Events(0) {
		if ev.Name != "sw.apply" {
			continue
		}
		var sw, key string
		for _, a := range ev.Attrs {
			switch a.K {
			case "switch":
				sw = a.V
			case "key":
				key = a.V
			}
		}
		if strings.HasPrefix(key, "clockprobe") {
			applies[sw] = true
		}
	}
	if len(applies) != len(in.G.Nodes()) {
		t.Fatalf("probe applies from %d switches, want %d: %v", len(applies), len(in.G.Nodes()), applies)
	}
	if drops := totalDrops(h); drops != before {
		t.Fatalf("probe caused drops: %f -> %f", before, drops)
	}
	noOverloads(t, h)
}

func TestPacketInOnBlackhole(t *testing.T) {
	in, h, c, f := setupFig1(t, 7)
	h.AdvanceTo(100)
	// Steer traffic into a rule-less switch: delete v5's rule, then flip
	// the source toward v5.
	g := in.G
	bad := dynflow.NewSchedule(150)
	bad.Set(g.Lookup("v1"), 150)
	// Delete v5's rule so redirected traffic blackholes there.
	h.Do(func() {
		h.Net.Switch(g.Lookup("v5")).RemoveRule(emuKey(f))
	})
	if err := c.ExecuteTimed(in, bad, f); err != nil {
		t.Fatal(err)
	}
	h.AdvanceTo(300)
	pins := c.PacketIns()
	if len(pins) == 0 {
		t.Fatal("no PacketIn for blackholed traffic")
	}
	found := false
	for _, p := range pins {
		if graph.NodeID(p.SwitchID) == g.Lookup("v5") && p.Flow == f.Name {
			found = true
		}
	}
	if !found {
		t.Fatalf("PacketIns = %+v, none from v5", pins)
	}
}

func emuKey(f FlowSpec) emu.FlowKey { return emu.FlowKey{Flow: f.Name, Tag: f.Tag} }
