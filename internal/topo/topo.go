// Package topo provides the topologies and workload generators used by the
// Chronus evaluation: the paper's six-switch running example (Fig. 1), the
// ten-switch emulation topology standing in for the Mininet testbed, and the
// random two-path MUTP instances that drive the simulation figures
// (Fig. 7-11).
package topo

import (
	"fmt"

	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/graph"
)

// Line returns a directed line graph v0 -> v1 -> ... -> v(n-1) with uniform
// capacity and delay, plus the node IDs in order.
func Line(n int, cap graph.Capacity, delay graph.Delay) (*graph.Graph, []graph.NodeID) {
	g := graph.New()
	ids := make([]graph.NodeID, n)
	for i := 0; i < n; i++ {
		ids[i] = g.AddNode(fmt.Sprintf("v%d", i+1))
	}
	for i := 0; i+1 < n; i++ {
		g.MustAddLink(ids[i], ids[i+1], cap, delay)
	}
	return g, ids
}

// Fig1Example returns the paper's six-switch running example: unit demand,
// unit link capacities and delays, initial path v1→v2→v3→v4→v5→v6 and final
// path reversing through the intermediate switches (v1→v5→v4→v3→v2→v6).
//
// Interpretation note: the paper's figure is described, not drawn, in the
// text we reproduce from. The full-reversal reading is the one consistent
// with every property the text states: updating only v2 immediately diverts
// flow over ⟨v2,v6⟩; updating v4 before v3 bounces in-flight traffic back to
// v3 (transient loop); updating v1 early funnels new flow onto a link still
// draining old flow (transient congestion); and the update set is exactly
// {v1,...,v5} as in Fig. 1(e)-(h).
func Fig1Example() *dynflow.Instance {
	g := graph.New()
	v := g.AddNodes("v1", "v2", "v3", "v4", "v5", "v6")
	g.MustAddLink(v[0], v[1], 1, 1)
	g.MustAddLink(v[1], v[2], 1, 1)
	g.MustAddLink(v[2], v[3], 1, 1)
	g.MustAddLink(v[3], v[4], 1, 1)
	g.MustAddLink(v[4], v[5], 1, 1)
	g.MustAddLink(v[0], v[4], 1, 1)
	g.MustAddLink(v[4], v[3], 1, 1)
	g.MustAddLink(v[3], v[2], 1, 1)
	g.MustAddLink(v[2], v[1], 1, 1)
	g.MustAddLink(v[1], v[5], 1, 1)
	return &dynflow.Instance{
		G:      g,
		Demand: 1,
		Init:   graph.Path{v[0], v[1], v[2], v[3], v[4], v[5]},
		Fin:    graph.Path{v[0], v[4], v[3], v[2], v[1], v[5]},
	}
}

// PaperSchedule returns the timed sequence from Fig. 1(e)-(h) for the
// Fig1Example instance: v2@t0, v3@t1, {v1,v4}@t2, v5@t3.
func PaperSchedule(in *dynflow.Instance) *dynflow.Schedule {
	g := in.G
	s := dynflow.NewSchedule(0)
	s.Set(g.Lookup("v2"), 0)
	s.Set(g.Lookup("v3"), 1)
	s.Set(g.Lookup("v1"), 2)
	s.Set(g.Lookup("v4"), 2)
	s.Set(g.Lookup("v5"), 3)
	return s
}

// EmulationCapacityMbps is the link capacity of the ten-switch emulation
// topology, matching the paper's Mininet setup (500 Mbps links).
const EmulationCapacityMbps = 500

// EmulationTopo returns the ten-switch topology standing in for the paper's
// Mininet testbed: switches R1..R10, an initial route along the line
// R1→R2→...→R10 and a final route reversing through the interior switches.
// Capacities are 500 (Mbps) and delays are in emulator ticks (milliseconds),
// within the paper's 5 ms..1 s range. The aggregate flow rate equals the
// link capacity, so any transient sharing of a link is visible as an
// over-capacity spike (the paper's Fig. 6).
func EmulationTopo() *dynflow.Instance {
	const n = 10
	g := graph.New()
	ids := make([]graph.NodeID, n)
	for i := 0; i < n; i++ {
		ids[i] = g.AddNode(fmt.Sprintf("R%d", i+1))
	}
	const cap = graph.Capacity(EmulationCapacityMbps)
	// Forward (initial) line: moderate per-hop delays.
	forwardDelays := []graph.Delay{10, 20, 15, 5, 25, 10, 20, 15, 10}
	for i := 0; i+1 < n; i++ {
		g.MustAddLink(ids[i], ids[i+1], cap, forwardDelays[i])
	}
	// Reverse (final) links through the interior plus the two detour links.
	g.MustAddLink(ids[0], ids[n-2], cap, 30) // R1 -> R9
	for i := n - 2; i >= 2; i-- {            // R9 -> R8 -> ... -> R2
		g.MustAddLink(ids[i], ids[i-1], cap, 15)
	}
	g.MustAddLink(ids[1], ids[n-1], cap, 20) // R2 -> R10
	init := make(graph.Path, n)
	copy(init, ids)
	fin := graph.Path{ids[0]}
	for i := n - 2; i >= 1; i-- {
		fin = append(fin, ids[i])
	}
	fin = append(fin, ids[n-1])
	return &dynflow.Instance{G: g, Demand: cap, Init: init, Fin: fin}
}
