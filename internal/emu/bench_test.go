package emu

import (
	"testing"

	"github.com/chronus-sdn/chronus/internal/core"
	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/obs"
	"github.com/chronus-sdn/chronus/internal/sim"
	"github.com/chronus-sdn/chronus/internal/topo"
)

// BenchmarkEmuSettle times the emulator's share of one executed update:
// a Chronus schedule for the EmulationTopo flow, applied rule by rule at
// its ticks on a traced network in steady state, from the first apply
// until the old path drained. Operations alternate between the forward
// update and the reverse one (both paths cover every switch), so every
// operation starts from steady state on one long-lived network, as the
// daemon's data plane does.
func BenchmarkEmuSettle(b *testing.B) {
	in := topo.EmulationTopo()
	back := &dynflow.Instance{G: in.G, Demand: in.Demand, Init: in.Fin, Fin: in.Init}
	var scheds [2]*dynflow.Schedule
	for i, inst := range []*dynflow.Instance{in, back} {
		res, err := core.Greedy(inst, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		scheds[i] = res.Schedule
	}
	drain := sim.Time(in.Init.Delay(in.G)+in.Fin.Delay(in.G)) + 10

	k := sim.NewKernel()
	n := New(in.G, k)
	n.SetObs(nil, obs.NewTracer(obs.TracerOptions{}))
	key := FlowKey{Flow: "f", Tag: 0}
	for i := 0; i+1 < len(in.Init); i++ {
		n.Switch(in.Init[i]).InstallRule(key, Action{NextHop: in.Init[i+1]})
	}
	n.Switch(in.Dest()).InstallRule(key, Action{ToHost: true})
	k.At(0, func() { n.Inject(in.Source(), key, Rate(in.Demand)) })
	k.RunUntil(drain)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst, sched := in, scheds[0]
		if i%2 == 1 {
			inst, sched = back, scheds[1]
		}
		start := k.Now()
		for v, t := range sched.Times {
			sw, next := n.Switch(v), inst.Fin.NextHop(v)
			k.At(start+sim.Time(t), func() { sw.InstallRule(key, Action{NextHop: next}) })
		}
		k.RunUntil(start + sim.Time(sched.End()) + drain)
	}
	b.StopTimer()
	if n.TotalDrops() != 0 || n.CongestedLinks() != 0 {
		b.Fatalf("the updates dropped %f or congested %d links", n.TotalDrops(), n.CongestedLinks())
	}
}
