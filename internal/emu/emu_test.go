package emu

import (
	"math/rand"
	"testing"

	"github.com/chronus-sdn/chronus/internal/core"
	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/graph"
	"github.com/chronus-sdn/chronus/internal/obs"
	"github.com/chronus-sdn/chronus/internal/sim"
	"github.com/chronus-sdn/chronus/internal/topo"
)

// lineNet builds a 4-switch line with the flow routed end to end.
func lineNet(t *testing.T) (*Network, *sim.Kernel, []graph.NodeID) {
	t.Helper()
	g, ids := topo.Line(4, 100, 10) // 100 Mbps, 10 ms per hop
	k := sim.NewKernel()
	n := New(g, k)
	key := FlowKey{Flow: "f", Tag: 0}
	for i := 0; i+1 < len(ids); i++ {
		n.Switch(ids[i]).InstallRule(key, Action{NextHop: ids[i+1]})
	}
	n.Switch(ids[3]).InstallRule(key, Action{ToHost: true})
	return n, k, ids
}

// overloadSpans returns the emu.overload spans tr recorded on the link
// labelled link ("from>to"), or on every link when link is empty.
func overloadSpans(tr *obs.Tracer, link string) []obs.Event {
	var out []obs.Event
	for _, e := range tr.Events(0) {
		if e.Name == obs.EvEmuOverload && (link == "" || e.Attr(obs.KeyLink) == link) {
			out = append(out, e)
		}
	}
	return out
}

func TestSteadyDelivery(t *testing.T) {
	n, k, ids := lineNet(t)
	key := FlowKey{Flow: "f", Tag: 0}
	k.At(0, func() { n.Inject(ids[0], key, 80) })
	k.RunUntil(1000)

	// Path delay is 30 ms; delivery runs for 970 ms at 80 units.
	want := 80.0 * 970
	if got := n.Switch(ids[3]).Delivered(); got != want {
		t.Fatalf("delivered = %f, want %f", got, want)
	}
	// Every link settles at 80 units, below capacity.
	for _, l := range n.Links() {
		if l.Rate() != 80 {
			t.Fatalf("link %d->%d rate = %d, want 80", l.From(), l.To(), l.Rate())
		}
		if l.OverloadCount() != 0 {
			t.Fatalf("unexpected overload on %d->%d", l.From(), l.To())
		}
	}
	// First link carries traffic from t=0: 1000 ms × 80.
	if got := n.Link(ids[0], ids[1]).Bytes(); got != 80*1000 {
		t.Fatalf("first link bytes = %f", got)
	}
	// Last link carries from t=20.
	if got := n.Link(ids[2], ids[3]).Bytes(); got != 80*980 {
		t.Fatalf("last link bytes = %f", got)
	}
}

func TestStopDrains(t *testing.T) {
	n, k, ids := lineNet(t)
	key := FlowKey{Flow: "f", Tag: 0}
	k.At(0, func() { n.Inject(ids[0], key, 50) })
	k.At(500, func() { n.Inject(ids[0], key, 0) })
	k.RunUntil(2000)
	if got := n.Switch(ids[3]).Delivered(); got != 50.0*500 {
		t.Fatalf("delivered = %f, want %f", got, 50.0*500)
	}
	for _, l := range n.Links() {
		if l.Rate() != 0 {
			t.Fatalf("link %d->%d still carries %d", l.From(), l.To(), l.Rate())
		}
	}
}

func TestMissingRuleDrops(t *testing.T) {
	g, ids := topo.Line(3, 10, 5)
	k := sim.NewKernel()
	n := New(g, k)
	key := FlowKey{Flow: "f", Tag: 0}
	n.Switch(ids[0]).InstallRule(key, Action{NextHop: ids[1]})
	// ids[1] has no rule: blackhole.
	k.At(0, func() { n.Inject(ids[0], key, 10) })
	k.RunUntil(100)
	if got := n.Switch(ids[1]).Dropped(); got != 10.0*95 {
		t.Fatalf("dropped = %f, want %f", got, 10.0*95)
	}
	if got := n.Switch(ids[2]).Delivered(); got != 0 {
		t.Fatalf("delivered = %f, want 0", got)
	}
}

func TestForwardingLoopDiesByTTL(t *testing.T) {
	g := graph.New()
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	g.MustAddLink(a, b, 10, 1)
	g.MustAddLink(b, c, 10, 1)
	g.MustAddLink(c, b, 10, 1)
	k := sim.NewKernel()
	n := New(g, k)
	key := FlowKey{Flow: "f", Tag: 0}
	n.Switch(a).InstallRule(key, Action{NextHop: b})
	n.Switch(b).InstallRule(key, Action{NextHop: c})
	n.Switch(c).InstallRule(key, Action{NextHop: b}) // loop b <-> c
	k.At(0, func() { n.Inject(a, key, 4) })
	k.RunUntil(500)
	// The loop multiplies occupancy: the b->c link carries many TTL
	// generations at once.
	if got := n.Link(b, c).Rate(); got <= 4 {
		t.Fatalf("loop link rate = %d, want amplification > 4", got)
	}
	drops := n.Switch(b).Dropped() + n.Switch(c).Dropped()
	if drops == 0 {
		t.Fatal("no TTL-expiry drops recorded")
	}
	// The overload counters see it: capacity is 10, loop carries ~4×31.
	if n.Link(b, c).OverloadCount() == 0 {
		t.Fatal("loop did not register overload")
	}
}

func TestRetagIngress(t *testing.T) {
	g, ids := topo.Line(3, 100, 5)
	k := sim.NewKernel()
	n := New(g, k)
	oldKey := FlowKey{Flow: "f", Tag: 1}
	newKey := FlowKey{Flow: "f", Tag: 2}
	for _, key := range []FlowKey{oldKey, newKey} {
		n.Switch(ids[0]).InstallRule(key, Action{NextHop: ids[1]})
		n.Switch(ids[1]).InstallRule(key, Action{NextHop: ids[2]})
		n.Switch(ids[2]).InstallRule(key, Action{ToHost: true})
	}
	k.At(0, func() { n.Inject(ids[0], oldKey, 30) })
	k.At(100, func() {
		// Two-phase stamp flip: same event, no gap.
		n.Inject(ids[0], oldKey, 0)
		n.Inject(ids[0], newKey, 30)
	})
	k.RunUntil(300)
	if got := n.Switch(ids[2]).Delivered(); got != 30.0*(300-10) {
		t.Fatalf("delivered = %f, want %f", got, 30.0*(300-10))
	}
	for _, l := range n.Links() {
		if l.OverloadCount() != 0 {
			t.Fatal("retagging must not overload")
		}
		if l.Rate() != 30 {
			t.Fatalf("steady rate = %d, want 30", l.Rate())
		}
	}
}

func TestTransientOverlapOverloads(t *testing.T) {
	// Old route s->a->m->d (20 ms to m), new route s->m (5 ms): flipping s
	// overlaps old in-flight traffic with new traffic on (m, d) for 15 ms.
	g := graph.New()
	s, a, m, d := g.AddNode("s"), g.AddNode("a"), g.AddNode("m"), g.AddNode("d")
	g.MustAddLink(s, a, 100, 10)
	g.MustAddLink(a, m, 100, 10)
	g.MustAddLink(m, d, 100, 10)
	g.MustAddLink(s, m, 100, 5)
	k := sim.NewKernel()
	n := New(g, k)
	tr := obs.NewTracer(obs.TracerOptions{})
	n.SetObs(nil, tr)
	key := FlowKey{Flow: "f", Tag: 0}
	n.Switch(s).InstallRule(key, Action{NextHop: a})
	n.Switch(a).InstallRule(key, Action{NextHop: m})
	n.Switch(m).InstallRule(key, Action{NextHop: d})
	n.Switch(d).InstallRule(key, Action{ToHost: true})
	k.At(0, func() { n.Inject(s, key, 100) })
	k.At(200, func() { n.Switch(s).InstallRule(key, Action{NextHop: m}) })
	k.RunUntil(400)

	ovs := overloadSpans(tr, "")
	if len(ovs) != 1 || ovs[0].Attr(obs.KeyLink) != "m>d" {
		t.Fatalf("overloads = %+v, want exactly one, on m>d", ovs)
	}
	ov := ovs[0]
	if peak := ov.AttrInt(obs.KeyPeak); peak != 200 {
		t.Fatalf("peak = %d, want 200", peak)
	}
	// New traffic reaches m at 205; old keeps arriving until 220.
	if start, end := ov.VT, ov.VT+ov.Dur; start != 205 || end != 220 {
		t.Fatalf("overload window = [%d, %d], want [205, 220]", start, end)
	}
	if got := n.Link(m, d).OverloadCount(); got != 1 {
		t.Fatalf("overload count = %d, want 1", got)
	}
	if n.TotalOverloadTicks() != 15 {
		t.Fatalf("total overload = %d, want 15", n.TotalOverloadTicks())
	}
	if n.CongestedLinks() != 1 {
		t.Fatalf("congested links = %d, want 1", n.CongestedLinks())
	}
}

// TestEmuAgreesWithDynflowOnFig1: replaying the paper's timed sequence in
// the fluid emulator is overload- and loop-free, while the naive
// simultaneous flip is not — the emulator and the dynamic-flow validator
// agree on the running example.
func TestEmuAgreesWithDynflowOnFig1(t *testing.T) {
	in := topo.Fig1Example()
	run := func(s *dynflow.Schedule, tr *obs.Tracer) *Network {
		k := sim.NewKernel()
		n := New(in.G, k)
		n.SetObs(nil, tr)
		key := FlowKey{Flow: "f", Tag: 0}
		// Old rules + destination delivery.
		for i := 0; i+1 < len(in.Init); i++ {
			n.Switch(in.Init[i]).InstallRule(key, Action{NextHop: in.Init[i+1]})
		}
		n.Switch(in.Dest()).InstallRule(key, Action{ToHost: true})
		k.At(0, func() { n.Inject(in.Source(), key, 1) })
		// Flips at schedule ticks, offset so the flow is in steady state.
		const off = 50
		for v, tv := range s.Times {
			v, tv := v, tv
			k.At(off+sim.Time(tv), func() {
				n.Switch(v).InstallRule(key, Action{NextHop: in.Fin.NextHop(v)})
			})
		}
		k.RunUntil(off + 100)
		return n
	}

	clean := run(topo.PaperSchedule(in), nil)
	for _, l := range clean.Links() {
		if l.OverloadCount() != 0 {
			t.Fatalf("paper schedule overloaded link %d->%d in the emulator", l.From(), l.To())
		}
	}
	var drops float64
	for _, id := range in.G.Nodes() {
		drops += clean.Switch(id).Dropped()
	}
	if drops != 0 {
		t.Fatalf("paper schedule dropped %f", drops)
	}

	// The paper's congestion case: v1 and v2 flip together, so new traffic
	// funnels onto (v5,v6) while old traffic is still draining through
	// v3..v5 (dynflow.TestValidateDetectsCongestion shows the discrete
	// analogue). Note the fluid model intentionally does not flag the
	// all-at-once flip: its violations are per-unit revisits (Definition
	// 2), which staggered 1-tick fluid segments do not expose as overload.
	naive := dynflow.NewSchedule(0)
	naive.Set(in.G.Lookup("v1"), 0)
	naive.Set(in.G.Lookup("v2"), 0)
	tr := obs.NewTracer(obs.TracerOptions{})
	run(naive, tr)
	ovs := overloadSpans(tr, "v5>v6")
	if len(ovs) == 0 {
		t.Fatal("v1+v2 flip showed no overload on (v5,v6) in the emulator")
	}
	if peak := ovs[0].AttrInt(obs.KeyPeak); peak != 2 {
		t.Fatalf("overload peak = %d, want 2 (old + new demand)", peak)
	}
}

func TestDumpRulesAndCounters(t *testing.T) {
	n, k, ids := lineNet(t)
	key := FlowKey{Flow: "f", Tag: 0}
	k.At(0, func() { n.Inject(ids[0], key, 10) })
	k.RunUntil(100)
	sw := n.Switch(ids[1])
	dump := sw.DumpRules()
	if len(dump) != 1 {
		t.Fatalf("dump = %+v", dump)
	}
	if dump[0].Action != "output:2" {
		t.Fatalf("action = %q", dump[0].Action)
	}
	if dump[0].Bytes != 10.0*90 { // arrives at t=10
		t.Fatalf("rule bytes = %f, want %f", dump[0].Bytes, 10.0*90)
	}
	sw.RemoveRule(key)
	if n := len(sw.DumpRules()); n != 0 {
		t.Fatalf("%d rules after remove", n)
	}
	sw.RemoveRule(key) // idempotent
	if n := len(sw.DumpRules()); n != 0 {
		t.Fatalf("%d rules after a second remove", n)
	}
}

// TestEmuAgreesOnRandomSchedules is the cross-model check at scale: any
// schedule the (discrete, unit-based) Chronus scheduler certifies must also
// run clean on the (continuous, fluid) emulator — no overload with positive
// duration, no drops — across random instances.
func TestEmuAgreesOnRandomSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	checked := 0
	for i := 0; i < 25; i++ {
		in := topo.RandomInstance(rng, topo.DefaultRandomParams(5+rng.Intn(10)))
		res, err := core.Greedy(in, core.Options{Mode: core.ModeFast})
		if err != nil {
			continue
		}
		checked++
		k := sim.NewKernel()
		n := New(in.G, k)
		key := FlowKey{Flow: "f", Tag: 0}
		for j := 0; j+1 < len(in.Init); j++ {
			n.Switch(in.Init[j]).InstallRule(key, Action{NextHop: in.Init[j+1]})
		}
		n.Switch(in.Dest()).InstallRule(key, Action{ToHost: true})
		k.At(0, func() { n.Inject(in.Source(), key, Rate(in.Demand)) })
		const off = 200 // steady state before the update begins
		for v, tv := range res.Schedule.Times {
			v, tv := v, tv
			k.At(off+sim.Time(tv), func() {
				n.Switch(v).InstallRule(key, Action{NextHop: in.Fin.NextHop(v)})
			})
		}
		k.RunUntil(off + 500)
		for _, l := range n.Links() {
			if c := l.OverloadCount(); c > 0 {
				t.Fatalf("instance %d: emulator overloaded %d->%d %d times (schedule %s)",
					i, l.From(), l.To(), c, res.Schedule.Format(in))
			}
		}
		var drops float64
		for _, id := range in.G.Nodes() {
			drops += n.Switch(id).Dropped()
		}
		if drops > 0 {
			t.Fatalf("instance %d: emulator dropped %f", i, drops)
		}
	}
	if checked < 5 {
		t.Fatalf("only %d schedules checked", checked)
	}
}

// TestRecordsOnlyForLiveKeys: emulator memory follows the traffic, not the
// history. Thirty back-to-back two-phase updates, each under a new tag and
// alternating between the two paths, leave each switch a record only for
// the key that still arrives there, and the name cache only that key.
func TestRecordsOnlyForLiveKeys(t *testing.T) {
	in := topo.EmulationTopo()
	k := sim.NewKernel()
	n := New(in.G, k)
	program := func(p graph.Path, key FlowKey) {
		for i := 0; i+1 < len(p); i++ {
			n.Switch(p[i]).InstallRule(key, Action{NextHop: p[i+1]})
		}
		n.Switch(p.Dest()).InstallRule(key, Action{ToHost: true})
	}
	drain := sim.Time(in.Init.Delay(in.G)+in.Fin.Delay(in.G)) + 10
	rate := Rate(in.Demand)

	cur, path := FlowKey{Flow: "f", Tag: 0}, in.Init
	program(path, cur)
	k.At(0, func() { n.Inject(in.Source(), cur, rate) })
	k.RunUntil(drain)
	for u := 1; u <= 30; u++ {
		old, oldPath := cur, path
		cur = FlowKey{Flow: "f", Tag: Tag(u)}
		if path = in.Fin; u%2 == 0 {
			path = in.Init
		}
		program(path, cur)
		now := k.Now()
		k.At(now, func() {
			n.Inject(in.Source(), old, 0)
			n.Inject(in.Source(), cur, rate)
		})
		k.RunUntil(now + drain)
		for _, v := range oldPath {
			n.Switch(v).RemoveRule(old)
		}
	}

	onPath := make(map[graph.NodeID]bool)
	for _, v := range path {
		onPath[v] = true
	}
	for _, id := range in.G.Nodes() {
		sw := n.Switch(id)
		for key, ks := range sw.keys {
			if key != cur || len(ks.in) == 0 {
				t.Errorf("%s keeps a record of %v (%d arrival bands); only %v carries traffic",
					sw.Name(), key, len(ks.in), cur)
			}
		}
		want := 0
		if onPath[id] {
			want = 1
		}
		if len(sw.keys) != want {
			t.Errorf("%s holds %d records, want %d", sw.Name(), len(sw.keys), want)
		}
	}
	if len(n.names) != 1 {
		t.Errorf("name cache holds %d keys, want 1", len(n.names))
	}
	if got, want := n.Switch(in.Dest()).Delivered(), float64(rate)*float64(k.Now()-sim.Time(in.Init.Delay(in.G))); got != want {
		t.Fatalf("delivered %f, want %f: the updates lost traffic", got, want)
	}
}
