package emu

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/chronus-sdn/chronus/internal/graph"
	"github.com/chronus-sdn/chronus/internal/obs"
	"github.com/chronus-sdn/chronus/internal/sim"
	"github.com/chronus-sdn/chronus/internal/topo"
)

// randomFlips is the scenario of the property tests below: a random
// instance carries one flow, and a random subset of the switches to update
// flips to its new next hop at a random tick, which can create loops
// (fluid dies by TTL) and blackholes. The host injects rate from tick 0 to
// stop; the kernel then runs until everything drained. tr may be nil.
func randomFlips(seed int64, tr *obs.Tracer) (net *Network, injected float64) {
	rng := rand.New(rand.NewSource(seed))
	n := 4 + rng.Intn(8)
	in := topo.RandomInstance(rng, topo.DefaultRandomParams(n))
	k := sim.NewKernel()
	net = New(in.G, k)
	net.SetObs(nil, tr)
	key := FlowKey{Flow: "f", Tag: 0}

	// Program the initial path; randomly mutate some switches midway
	// to new rules (possibly creating loops or blackholes).
	for i := 0; i+1 < len(in.Init); i++ {
		net.Switch(in.Init[i]).InstallRule(key, Action{NextHop: in.Init[i+1]})
	}
	net.Switch(in.Dest()).InstallRule(key, Action{ToHost: true})

	const rate = 8
	const stop = 200
	k.At(0, func() { net.Inject(in.Source(), key, rate) })
	for _, v := range in.UpdateSet() {
		v := v
		if rng.Intn(2) == 0 {
			at := sim.Time(20 + rng.Intn(100))
			k.At(at, func() {
				net.Switch(v).InstallRule(key, Action{NextHop: in.Fin.NextHop(v)})
			})
		}
	}
	k.At(stop, func() { net.Inject(in.Source(), key, 0) })
	k.RunUntil(5000)
	return net, float64(rate * stop)
}

// TestConservationProperty: after all traffic drains, every injected byte
// was either delivered to a host or dropped (blackhole/TTL) — the fluid
// emulator conserves traffic.
func TestConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		net, injected := randomFlips(seed, nil)
		var accounted float64
		for _, id := range net.G.Nodes() {
			accounted += net.Switch(id).Delivered() + net.Switch(id).Dropped()
		}
		// Everything drained: no link still carries traffic.
		for _, l := range net.Links() {
			if l.Rate() != 0 {
				return false
			}
		}
		diff := injected - accounted
		if diff < 0 {
			diff = -diff
		}
		return diff < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestEmuTraceDeterministic: the emulator's trace is a function of its
// inputs. Loops put many TTL bands of one key on a link at once, so this
// catches any emission order taken from map iteration: six runs of every
// seed must serialize to the same bytes.
func TestEmuTraceDeterministic(t *testing.T) {
	const seeds, runs = 500, 6
	for seed := int64(0); seed < seeds; seed++ {
		var want []byte
		for run := 0; run < runs; run++ {
			tr := obs.NewTracer(obs.TracerOptions{Cap: 1 << 20})
			randomFlips(seed, tr)
			var b bytes.Buffer
			if err := tr.WriteJSONL(&b, 0); err != nil {
				t.Fatal(err)
			}
			if run == 0 {
				want = b.Bytes()
				continue
			}
			if !bytes.Equal(b.Bytes(), want) {
				t.Fatalf("seed %d: run %d traced differently from run 0 (%d vs %d bytes)",
					seed, run, b.Len(), len(want))
			}
		}
	}
}

// rateStep is one total-rate change of a link, read from its emu.rate
// trace records.
type rateStep struct {
	at    sim.Time
	total Rate
}

// rateSteps returns the total-rate steps tr recorded for l in order; a
// later same-tick record overwrites an earlier one.
func rateSteps(tr *obs.Tracer, l *Link) []rateStep {
	var out []rateStep
	for _, e := range tr.Events(0) {
		if e.Name != obs.EvEmuRate || e.Attr(obs.KeyLink) != l.label {
			continue
		}
		st := rateStep{at: sim.Time(e.VT), total: Rate(e.AttrInt(obs.KeyTotal))}
		if n := len(out); n > 0 && out[n-1].at == st.at {
			out[n-1] = st
		} else {
			out = append(out, st)
		}
	}
	return out
}

// TestLinkTimelineMatchesCounter: integrating a link's total rate, as its
// emu.rate trace records give it, equals its byte counter.
func TestLinkTimelineMatchesCounter(t *testing.T) {
	g, ids := topo.Line(4, 50, 7)
	k := sim.NewKernel()
	net := New(g, k)
	tr := obs.NewTracer(obs.TracerOptions{})
	net.SetObs(nil, tr)
	key := FlowKey{Flow: "f", Tag: 0}
	for i := 0; i+1 < len(ids); i++ {
		net.Switch(ids[i]).InstallRule(key, Action{NextHop: ids[i+1]})
	}
	net.Switch(ids[3]).InstallRule(key, Action{ToHost: true})
	k.At(0, func() { net.Inject(ids[0], key, 30) })
	k.At(100, func() { net.Inject(ids[0], key, 10) })
	k.At(200, func() { net.Inject(ids[0], key, 0) })
	k.RunUntil(400)

	l := net.Link(ids[1], ids[2])
	var integral float64
	steps := rateSteps(tr, l)
	if len(steps) != 3 {
		t.Fatalf("rate steps = %+v, want 3", steps)
	}
	for i, p := range steps {
		end := sim.Time(400)
		if i+1 < len(steps) {
			end = steps[i+1].at
		}
		integral += float64(p.total) * float64(end-p.at)
	}
	if counter := l.Bytes(); counter != integral {
		t.Fatalf("counter %f != traced rate integral %f", counter, integral)
	}
}

// TestOverloadAccountingProperty: a link's emu.overload spans exactly
// cover the times its traced total rate exceeds capacity, and its
// counters agree with them, an interval still open at the end included.
func TestOverloadAccountingProperty(t *testing.T) {
	g := graph.New()
	a, b := g.AddNode("a"), g.AddNode("b")
	g.MustAddLink(a, b, 10, 1)
	k := sim.NewKernel()
	net := New(g, k)
	tr := obs.NewTracer(obs.TracerOptions{})
	net.SetObs(nil, tr)
	net.Switch(b).InstallRule(FlowKey{Flow: "x", Tag: 0}, Action{ToHost: true})
	net.Switch(b).InstallRule(FlowKey{Flow: "y", Tag: 0}, Action{ToHost: true})
	net.Switch(a).InstallRule(FlowKey{Flow: "x", Tag: 0}, Action{NextHop: b})
	net.Switch(a).InstallRule(FlowKey{Flow: "y", Tag: 0}, Action{NextHop: b})

	k.At(0, func() { net.Inject(a, FlowKey{Flow: "x", Tag: 0}, 8) })
	k.At(50, func() { net.Inject(a, FlowKey{Flow: "y", Tag: 0}, 8) }) // 16 > 10
	k.At(80, func() { net.Inject(a, FlowKey{Flow: "x", Tag: 0}, 0) })
	k.At(120, func() { net.Inject(a, FlowKey{Flow: "y", Tag: 0}, 12) }) // 12 > 10
	k.At(150, func() { net.Inject(a, FlowKey{Flow: "y", Tag: 0}, 0) })
	k.At(250, func() { net.Inject(a, FlowKey{Flow: "y", Tag: 0}, 12) }) // open at 300
	k.RunUntil(300)

	l := net.Link(a, b)
	ovs := overloadSpans(tr, l.label)
	type interval struct {
		start, end sim.Time
		peak       Rate
	}
	var got []interval
	for _, e := range ovs {
		got = append(got, interval{sim.Time(e.VT), sim.Time(e.VT + e.Dur), Rate(e.AttrInt(obs.KeyPeak))})
	}
	want := []interval{{50, 80, 16}, {120, 150, 12}}
	if !slices.Equal(got, want) {
		t.Fatalf("overload spans = %+v, want %+v", got, want)
	}
	// The same intervals, derived from the traced totals, and the open one.
	want = append(want, interval{250, -1, 12})
	var derived []interval
	for _, st := range rateSteps(tr, l) {
		n := len(derived)
		open := n > 0 && derived[n-1].end < 0
		switch over := st.total > l.Capacity(); {
		case over && !open:
			derived = append(derived, interval{st.at, -1, st.total})
		case over:
			derived[n-1].peak = max(derived[n-1].peak, st.total)
		case open:
			derived[n-1].end = st.at
		}
	}
	if !slices.Equal(derived, want) {
		t.Fatalf("intervals over capacity in the traced totals = %+v, want %+v", derived, want)
	}
	if l.OverloadCount() != 3 || l.OverloadTicks() != 110 || net.TotalOverloadTicks() != 110 {
		t.Fatalf("overload count %d, ticks %d (network %d), want 3 and 110",
			l.OverloadCount(), l.OverloadTicks(), net.TotalOverloadTicks())
	}
	if l.LastChange() != 250 {
		t.Fatalf("last change at %d, want 250", l.LastChange())
	}
}

// TestLinkKeepsNoHistory: a link's memory does not grow with the rate
// changes it sees. After 1 000 change/revert pairs that take the link
// over capacity and back, 1 000 more allocate nothing. The count is the
// total over the 1 000 pairs, not testing.AllocsPerRun's integer average
// per pair, which reads 0 for a slice that grows by amortized doubling.
// Both keys keep arriving throughout: a key that stops arriving
// everywhere gives up its cached name, and formats it again on return.
func TestLinkKeepsNoHistory(t *testing.T) {
	g := graph.New()
	a, b := g.AddNode("a"), g.AddNode("b")
	g.MustAddLink(a, b, 10, 1)
	k := sim.NewKernel()
	net := New(g, k)
	x, y := FlowKey{Flow: "x", Tag: 0}, FlowKey{Flow: "y", Tag: 0}
	for _, key := range []FlowKey{x, y} {
		net.Switch(a).InstallRule(key, Action{NextHop: b})
		net.Switch(b).InstallRule(key, Action{ToHost: true})
	}
	k.At(0, func() {
		net.Inject(a, x, 4)
		net.Inject(a, y, 4)
	})
	k.RunUntil(10)

	up := func() { net.Inject(a, y, 8) }   // 12 > 10
	down := func() { net.Inject(a, y, 4) } // back to 8
	pair := func() {
		now := k.Now()
		k.At(now+1, up)
		k.At(now+3, down)
		k.RunUntil(now + 5)
	}
	pairs := func() {
		for range 1000 {
			pair()
		}
	}
	// AllocsPerRun runs pairs once to warm up, then once measured.
	if allocs := testing.AllocsPerRun(1, pairs); allocs != 0 {
		t.Fatalf("1 000 rate change/revert pairs allocated %v times, want 0", allocs)
	}
	l := net.Link(a, b)
	if got := l.OverloadCount(); got != 2000 {
		t.Fatalf("overload count = %d, want 2000", got)
	}
	if got := l.OverloadTicks(); got != 4000 {
		t.Fatalf("overload ticks = %d, want 4000", got)
	}
}
