package emu

import (
	"bytes"
	"math/rand"
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

// TestLinkTimelineMatchesCounter: integrating a link's rate timeline equals
// its byte counter at any sampled instant.
func TestLinkTimelineMatchesCounter(t *testing.T) {
	g, ids := topo.Line(4, 50, 7)
	k := sim.NewKernel()
	net := New(g, k)
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
	tl := l.Timeline()
	for i, p := range tl {
		end := sim.Time(400)
		if i+1 < len(tl) {
			end = tl[i+1].At
		}
		integral += float64(p.Rate) * float64(end-p.At)
	}
	if counter := l.Bytes(); counter != integral {
		t.Fatalf("counter %f != timeline integral %f", counter, integral)
	}
}

// TestOverloadAccountingProperty: a link's overload intervals exactly cover
// the times its timeline exceeds capacity.
func TestOverloadAccountingProperty(t *testing.T) {
	g := graph.New()
	a, b := g.AddNode("a"), g.AddNode("b")
	g.MustAddLink(a, b, 10, 1)
	k := sim.NewKernel()
	net := New(g, k)
	net.Switch(b).InstallRule(FlowKey{Flow: "x", Tag: 0}, Action{ToHost: true})
	net.Switch(b).InstallRule(FlowKey{Flow: "y", Tag: 0}, Action{ToHost: true})
	net.Switch(a).InstallRule(FlowKey{Flow: "x", Tag: 0}, Action{NextHop: b})
	net.Switch(a).InstallRule(FlowKey{Flow: "y", Tag: 0}, Action{NextHop: b})

	k.At(0, func() { net.Inject(a, FlowKey{Flow: "x", Tag: 0}, 8) })
	k.At(50, func() { net.Inject(a, FlowKey{Flow: "y", Tag: 0}, 8) }) // 16 > 10
	k.At(80, func() { net.Inject(a, FlowKey{Flow: "x", Tag: 0}, 0) })
	k.At(120, func() { net.Inject(a, FlowKey{Flow: "y", Tag: 0}, 12) }) // 12 > 10
	k.At(150, func() { net.Inject(a, FlowKey{Flow: "y", Tag: 0}, 0) })
	k.RunUntil(300)

	l := net.Link(a, b)
	ovs := l.Overloads()
	if len(ovs) != 2 {
		t.Fatalf("overloads = %+v, want 2 intervals", ovs)
	}
	if ovs[0].Start != 50 || ovs[0].End != 80 || ovs[0].Peak != 16 {
		t.Fatalf("first overload = %+v", ovs[0])
	}
	if ovs[1].Start != 120 || ovs[1].End != 150 || ovs[1].Peak != 12 {
		t.Fatalf("second overload = %+v", ovs[1])
	}
	if got := ovs[0].Duration(300) + ovs[1].Duration(300); got != 60 {
		t.Fatalf("total overload = %d, want 60", got)
	}
}
