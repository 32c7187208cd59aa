// Maintenance drain: take a router out of service without disturbing the
// traffic riding through it (the paper's motivation (3): "in order to
// replace a faulty router, it may be necessary to temporarily reroute
// traffic").
//
// This example drives the full stack: the ten-switch emulated data plane,
// switch agents with PTP-grade synchronized clocks, the controller speaking
// the ofp protocol, timed FlowMods, and byte-counter monitoring — then
// verifies the drained switch carries nothing and no link ever exceeded
// capacity.
//
//	go run ./examples/maintenance
package main

import (
	"fmt"
	"log"

	chronus "github.com/chronus-sdn/chronus"
)

func main() {
	in := chronus.EmulationTopo()
	fmt.Println("Maintenance drain on the emulated testbed")
	fmt.Printf("  topology: %d switches, %d links, %d Mbps aggregate\n", in.G.NumNodes(), in.G.NumLinks(), in.Demand)
	fmt.Printf("  old route: %s\n", in.Init.Format(in.G))
	fmt.Printf("  new route: %s\n\n", in.Fin.Format(in.G))

	tb := chronus.NewTestbed(in.G)
	ctl := chronus.NewController(tb, chronus.ControllerOptions{Seed: 42})
	clocks := chronus.NewClockEnsemble(chronus.DefaultClockParams(42), in.G.Nodes())
	ctl.AttachAll(clocks)

	flow := chronus.FlowSpec{Name: "agg", Tag: 0, Path: in.Init, Rate: chronus.Rate(in.Demand)}
	if err := ctl.Provision(flow); err != nil {
		log.Fatal(err)
	}
	tb.AdvanceTo(300)
	fmt.Println("flow provisioned; steady state reached at t=300ms")

	// Compute the timed drain schedule and execute it via timed FlowMods.
	plan, err := chronus.Solve(in, chronus.SolveOptions{})
	if err != nil {
		log.Fatal(err)
	}
	start := chronus.Tick(400)
	sched := chronus.NewSchedule(start)
	for v, tv := range plan.Schedule.Times {
		sched.Set(v, start+tv)
	}
	if err := ctl.ExecuteTimed(in, sched, flow); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("timed FlowMods accepted; updates fire at t=%d..%d on the switches' local clocks\n\n", start, sched.End())

	// Watch the drained path's middle link and the relief path during the
	// transition, the way the paper's Fig. 6 does.
	samples, err := ctl.SampleLink(in.Init[4], in.Init[5], 100, 6) // R5 -> R6 on the old route
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("bandwidth on old-route link R5->R6 (100 ms counter deltas):")
	for _, s := range samples {
		fmt.Printf("  t=%4dms  %6.1f Mbps\n", s.At, s.Rate)
	}

	tb.AdvanceTo(1200)
	drained := tb.Net.Link(in.Init[4], in.Init[5])
	fmt.Printf("\nafter the update: R5->R6 carries %d Mbps — safe to power R6 down\n", drained.Rate())
	fmt.Printf("transient overloads anywhere: %d ticks; drops: ", tb.Net.TotalOverloadTicks())
	var drops float64
	tb.Do(func() { drops = tb.Net.TotalDrops() })
	fmt.Printf("%.0f bytes\n", drops)
	if tb.Net.TotalOverloadTicks() == 0 && drops == 0 {
		fmt.Println("drain completed hitlessly")
	}
}
