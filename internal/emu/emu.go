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
	"strconv"

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

func (k FlowKey) String() string { return k.Flow + "/" + strconv.FormatUint(uint64(k.Tag), 10) }

// DefaultTTL is the hop budget of injected traffic; looping fluid dies
// after DefaultTTL hops, like TTL-expired packets.
const DefaultTTL = 64

// Network is an emulated data plane over a graph topology.
type Network struct {
	G        *graph.Graph
	K        *sim.Kernel
	switches []*Switch // indexed by node ID (graph IDs are dense)
	links    []*Link   // ordered by (from, to)

	// names caches FlowKey.String for the keys some switch holds a
	// record of, so a key is formatted once while it carries traffic.
	names map[FlowKey]keyName
	// free holds released switch records for reuse, with their bands'
	// storage: a key often stops and resumes arriving at a switch within
	// one update.
	free []*keyState

	met   emuMetrics
	trace *obs.Tracer
}

// keyName is a cached key name and the number of switch records using it.
type keyName struct {
	s    string
	refs int
}

// New builds the emulated network: one Switch per graph node, one Link per
// graph link.
func New(g *graph.Graph, k *sim.Kernel) *Network {
	n := &Network{
		G:        g,
		K:        k,
		switches: make([]*Switch, g.NumNodes()),
		links:    make([]*Link, 0, g.NumLinks()),
		names:    make(map[FlowKey]keyName),
	}
	for _, id := range g.Nodes() {
		n.switches[id] = newSwitch(n, id)
	}
	for _, spec := range g.Links() { // ordered by (from, to)
		l := newLink(n, spec)
		n.links = append(n.links, l)
		sw := n.switches[spec.From]
		sw.ports = append(sw.ports, l)
	}
	return n
}

// Switch returns the switch for a node; nil if unknown.
func (n *Network) Switch(id graph.NodeID) *Switch {
	if id < 0 || int(id) >= len(n.switches) {
		return nil
	}
	return n.switches[id]
}

// Link returns the link (from, to); nil if absent.
func (n *Network) Link(from, to graph.NodeID) *Link {
	if sw := n.Switch(from); sw != nil {
		return sw.port(to)
	}
	return nil
}

// Links returns all links in deterministic order.
func (n *Network) Links() []*Link {
	return append([]*Link(nil), n.links...)
}

// newKeyState returns an empty switch record of key, reusing a released
// one, with key's name from the cache.
func (n *Network) newKeyState(key FlowKey) *keyState {
	kn, ok := n.names[key]
	if !ok {
		kn.s = key.String()
	}
	kn.refs++
	n.names[key] = kn

	var ks *keyState
	if last := len(n.free) - 1; last >= 0 {
		ks = n.free[last]
		n.free = n.free[:last]
	} else {
		ks = new(keyState)
	}
	ks.name = kn.s
	return ks
}

// releaseKeyState takes back a switch record of key that holds no
// traffic, keeping its storage for newKeyState and dropping key's name
// with its last record.
func (n *Network) releaseKeyState(key FlowKey, ks *keyState) {
	if kn := n.names[key]; kn.refs > 1 {
		kn.refs--
		n.names[key] = kn
	} else {
		delete(n.names, key)
	}
	*ks = keyState{in: ks.in[:0], out: ks.out[:0], next: ks.next[:0]}
	n.free = append(n.free, ks)
}

// Inject sets the rate at which the host attached to src emits traffic for
// the given flow key, effective now. Passing rate 0 stops the injection.
// Re-tagging traffic (the two-phase ingress stamp) is Inject(old tag, 0)
// plus Inject(new tag, rate) in the same event.
func (n *Network) Inject(src graph.NodeID, key FlowKey, rate Rate) {
	sw := n.Switch(src)
	if sw == nil {
		panic(fmt.Sprintf("emu: inject at unknown switch %d", src))
	}
	ks := sw.state(key)
	if n.trace != nil {
		// The injection record is what lets a trace consumer (the audit
		// package) replay emissions: which switch sources the key, at what
		// rate, from which tick.
		n.trace.Point(int64(n.K.Now()), obs.EvEmuInject,
			obs.A(obs.KeySwitch, sw.Name()), obs.A(obs.KeyKey, ks.name),
			obs.A(obs.KeyRate, int64(rate)))
	}
	sw.arrive(key, ks, hostPort, DefaultTTL, rate)
}

// hostPort is the pseudo upstream switch of host-injected traffic.
const hostPort graph.NodeID = -2

// TotalOverloadTicks sums, over all links, the time spent above capacity.
func (n *Network) TotalOverloadTicks() sim.Time {
	var total sim.Time
	for _, l := range n.links {
		total += l.OverloadTicks()
	}
	return total
}

// TotalDrops sums, over all switches in node order, the bytes dropped
// (no rule / TTL expired) by now.
func (n *Network) TotalDrops() float64 {
	var total float64
	for _, sw := range n.switches {
		total += sw.Dropped()
	}
	return total
}

// CongestedLinks returns the number of links that ever exceeded capacity.
func (n *Network) CongestedLinks() int {
	count := 0
	for _, l := range n.links {
		if l.OverloadCount() > 0 {
			count++
		}
	}
	return count
}
