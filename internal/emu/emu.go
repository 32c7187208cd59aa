// Package emu is the data-plane emulator standing in for the paper's
// Mininet/Open vSwitch testbed: switches with exact-match flow tables,
// links with capacity and propagation delay, and fluid flows whose rate
// changes propagate through the network at link speed.
//
// The fluid model is what makes the Fig. 6 experiment meaningful: when a
// rule flips, traffic already in flight keeps arriving on the old route for
// one propagation delay per hop, so links transiently carry old and new
// traffic simultaneously — the same mechanism the dynamic-flow model
// (internal/dynflow) captures discretely. The emulator integrates per-link
// byte counters so the controller can measure bandwidth consumption exactly
// the way the paper's Floodlight statistics module does (byte-counter
// deltas divided by the sampling interval).
//
// Exact-match tables follow the paper's own justification: prefix and
// wildcard rules "are increasingly being substituted with exact match
// rules in SDNs".
//
// All mutations must be performed from within simulation events (the switch
// agents in internal/switchd do this); the emulator is not goroutine-safe
// by design — determinism comes from the single-threaded event kernel.
package emu

import (
	"fmt"
	"sort"

	"github.com/chronus-sdn/chronus/internal/graph"
	"github.com/chronus-sdn/chronus/internal/obs"
	"github.com/chronus-sdn/chronus/internal/sim"
)

// Rate is a traffic rate in capacity units (Mbps in the experiments).
type Rate int64

// Tag is a version tag carried by traffic (the paper's two-phase updates
// use VLAN IDs).
type Tag uint16

// FlowKey identifies a traffic aggregate: a named flow plus its version
// tag. Forwarding rules match FlowKeys exactly.
type FlowKey struct {
	Flow string
	Tag  Tag
}

func (k FlowKey) String() string { return fmt.Sprintf("%s/%d", k.Flow, k.Tag) }

// DefaultTTL is the hop budget of injected traffic; looping fluid dies
// after DefaultTTL hops, like TTL-expired packets.
const DefaultTTL = 64

// Network is an emulated data plane over a graph topology.
type Network struct {
	G        *graph.Graph
	K        *sim.Kernel
	switches map[graph.NodeID]*Switch
	links    map[[2]graph.NodeID]*Link

	met   emuMetrics
	trace *obs.Tracer
}

// New builds the emulated network: one Switch per graph node, one Link per
// graph link.
func New(g *graph.Graph, k *sim.Kernel) *Network {
	n := &Network{
		G:        g,
		K:        k,
		switches: make(map[graph.NodeID]*Switch, g.NumNodes()),
		links:    make(map[[2]graph.NodeID]*Link, g.NumLinks()),
	}
	for _, id := range g.Nodes() {
		n.switches[id] = newSwitch(n, id)
	}
	for _, l := range g.Links() {
		n.links[[2]graph.NodeID{l.From, l.To}] = newLink(n, l)
	}
	return n
}

// Switch returns the switch for a node; nil if unknown.
func (n *Network) Switch(id graph.NodeID) *Switch { return n.switches[id] }

// Link returns the link (from, to); nil if absent.
func (n *Network) Link(from, to graph.NodeID) *Link {
	return n.links[[2]graph.NodeID{from, to}]
}

// Links returns all links in deterministic order.
func (n *Network) Links() []*Link {
	keys := make([][2]graph.NodeID, 0, len(n.links))
	for k := range n.links {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	out := make([]*Link, 0, len(keys))
	for _, k := range keys {
		out = append(out, n.links[k])
	}
	return out
}

// Inject sets the rate at which the host attached to src emits traffic for
// the given flow key, effective now. Passing rate 0 stops the injection.
// Re-tagging traffic (the two-phase ingress stamp) is Inject(old tag, 0)
// plus Inject(new tag, rate) in the same event.
func (n *Network) Inject(src graph.NodeID, key FlowKey, rate Rate) {
	sw := n.switches[src]
	if sw == nil {
		panic(fmt.Sprintf("emu: inject at unknown switch %d", src))
	}
	if n.trace != nil {
		// The injection record is what lets a trace consumer (the audit
		// package) replay emissions: which switch sources the key, at what
		// rate, from which tick.
		n.trace.Point(int64(n.K.Now()), obs.EvEmuInject,
			obs.A(obs.KeySwitch, sw.Name()), obs.A(obs.KeyKey, key.String()),
			obs.A(obs.KeyRate, int64(rate)))
	}
	sw.setInput(hostPort, key, DefaultTTL, rate)
}

// hostPort is the pseudo in-link identifier for host-injected traffic.
var hostPort = [2]graph.NodeID{-2, -2}

// TotalOverloadTicks sums, over all links, the time spent above capacity.
func (n *Network) TotalOverloadTicks() sim.Time {
	var total sim.Time
	for _, l := range n.Links() {
		for _, iv := range l.Overloads() {
			total += iv.Duration(n.K.Now())
		}
	}
	return total
}

// TotalDrops sums, over all switches in node order, the bytes dropped
// (no rule / TTL expired) by now.
func (n *Network) TotalDrops() float64 {
	var total float64
	for _, id := range n.G.Nodes() {
		total += n.switches[id].Dropped()
	}
	return total
}

// CongestedLinks returns the number of links that ever exceeded capacity.
func (n *Network) CongestedLinks() int {
	count := 0
	for _, l := range n.Links() {
		if len(l.Overloads()) > 0 {
			count++
		}
	}
	return count
}
