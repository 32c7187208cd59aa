package emu

import (
	"fmt"
	"sort"

	"github.com/chronus-sdn/chronus/internal/graph"
	"github.com/chronus-sdn/chronus/internal/sim"
)

// Action is what a rule does with matching traffic.
type Action struct {
	// NextHop forwards to the adjacent switch; used when ToHost is false.
	NextHop graph.NodeID
	// ToHost delivers to the locally attached host.
	ToHost bool
}

func (a Action) String() string {
	if a.ToHost {
		return "output:host"
	}
	return fmt.Sprintf("output:%d", a.NextHop)
}

// Rule is one exact-match flow-table entry with its counters.
type Rule struct {
	Key    FlowKey
	Action Action

	bytes counter
}

// Bytes returns the rule's byte counter at time now (unit·ticks, the
// integral of matched rate).
func (r *Rule) Bytes(now sim.Time) float64 { return r.bytes.at(now) }

// Switch is an emulated OpenFlow-style switch: an exact-match flow table,
// per-key arrival bookkeeping and delivery/drop counters.
type Switch struct {
	net *Network
	id  graph.NodeID

	rules map[FlowKey]*Rule
	// in[inPort][key][ttl] is the arrival rate of (key, ttl) traffic from
	// inPort (a link's endpoint pair, or hostPort).
	in map[[2]graph.NodeID]map[FlowKey]map[int]Rate
	// out[key][ttl] is the currently forwarded contribution, to diff when
	// rules or arrivals change.
	out map[FlowKey]map[int]outContribution

	delivered counter // traffic handed to the local host
	dropped   counter // traffic without a matching rule or with expired TTL
	hostByKey map[FlowKey]hostRates
	flowMods  int64

	// missHandler, when set, fires once each time a key transitions from
	// not-dropping to dropping — the emulator's PacketIn hook.
	missHandler func(key FlowKey, reason MissReason)
}

// MissReason classifies why a switch started dropping a key's traffic.
type MissReason uint8

// Miss reasons.
const (
	// MissNoRule: no flow-table entry matched.
	MissNoRule MissReason = iota + 1
	// MissTTLExpired: the hop budget ran out (forwarding loop).
	MissTTLExpired
)

// SetMissHandler installs the drop-notification hook (nil disables it).
func (sw *Switch) SetMissHandler(h func(key FlowKey, reason MissReason)) {
	sw.missHandler = h
}

type outContribution struct {
	action Action
	rate   Rate
}

func newSwitch(n *Network, id graph.NodeID) *Switch {
	return &Switch{
		net:   n,
		id:    id,
		rules: make(map[FlowKey]*Rule),
		in:    make(map[[2]graph.NodeID]map[FlowKey]map[int]Rate),
		out:   make(map[FlowKey]map[int]outContribution),
	}
}

// ID returns the switch's node ID.
func (sw *Switch) ID() graph.NodeID { return sw.id }

// Name returns the switch's topology name.
func (sw *Switch) Name() string { return sw.net.G.Name(sw.id) }

// InstallRule adds or replaces the entry for key, effective immediately
// (the caller runs inside a simulation event; rule timing is the switch
// agent's concern).
func (sw *Switch) InstallRule(key FlowKey, action Action) {
	r, ok := sw.rules[key]
	if !ok {
		r = &Rule{Key: key}
		sw.rules[key] = r
	}
	now := sw.net.K.Now()
	r.bytes.setRate(now, 0) // close the old integration segment
	r.Action = action
	sw.flowMods++
	sw.reroute(key)
}

// RemoveRule deletes the entry for key.
func (sw *Switch) RemoveRule(key FlowKey) {
	if _, ok := sw.rules[key]; !ok {
		return
	}
	delete(sw.rules, key)
	sw.flowMods++
	sw.reroute(key)
}

// RuleCount returns the number of resident entries.
func (sw *Switch) RuleCount() int { return len(sw.rules) }

// FlowMods returns how many table modifications the switch has applied.
func (sw *Switch) FlowMods() int64 { return sw.flowMods }

// RuleInfo is a dump entry for displaying flow tables (the paper's
// Table II).
type RuleInfo struct {
	Key    FlowKey
	Action string
	Bytes  float64
}

// DumpRules returns the flow table sorted by key.
func (sw *Switch) DumpRules() []RuleInfo {
	out := make([]RuleInfo, 0, len(sw.rules))
	now := sw.net.K.Now()
	for _, r := range sw.rules {
		out = append(out, RuleInfo{Key: r.Key, Action: r.Action.String(), Bytes: r.Bytes(now)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key.Flow != out[j].Key.Flow {
			return out[i].Key.Flow < out[j].Key.Flow
		}
		return out[i].Key.Tag < out[j].Key.Tag
	})
	return out
}

// Delivered returns the bytes delivered to the local host by time now.
func (sw *Switch) Delivered() float64 { return sw.delivered.at(sw.net.K.Now()) }

// Dropped returns the bytes dropped (no rule / TTL expired) by time now.
func (sw *Switch) Dropped() float64 { return sw.dropped.at(sw.net.K.Now()) }

// setInput records that (key, ttl) traffic arrives from inPort at the given
// rate, then re-evaluates forwarding for key.
func (sw *Switch) setInput(inPort [2]graph.NodeID, key FlowKey, ttl int, rate Rate) {
	byKey, ok := sw.in[inPort]
	if !ok {
		byKey = make(map[FlowKey]map[int]Rate)
		sw.in[inPort] = byKey
	}
	byTTL, ok := byKey[key]
	if !ok {
		byTTL = make(map[int]Rate)
		byKey[key] = byTTL
	}
	if rate == 0 {
		delete(byTTL, ttl)
	} else {
		byTTL[ttl] = rate
	}
	sw.reroute(key)
}

// arrivalByTTL aggregates the arrival rate for key across in-ports.
func (sw *Switch) arrivalByTTL(key FlowKey) map[int]Rate {
	agg := make(map[int]Rate)
	for _, byKey := range sw.in {
		for ttl, rate := range byKey[key] {
			agg[ttl] += rate
		}
	}
	return agg
}

// reroute recomputes the forwarding of key's traffic after an arrival or
// rule change, diffing against the previous contribution and propagating
// rate-change fronts downstream with the link delay.
func (sw *Switch) reroute(key FlowKey) {
	now := sw.net.K.Now()
	arr := sw.arrivalByTTL(key)
	rule := sw.rules[key]

	prev := sw.out[key]
	next := make(map[int]outContribution, len(arr))
	var droppedRate, deliveredRate Rate
	missReason := MissReason(0)
	for ttl, rate := range arr {
		switch {
		case rule == nil:
			droppedRate += rate
			missReason = MissNoRule
		case rule.Action.ToHost:
			deliveredRate += rate
		case ttl <= 0:
			droppedRate += rate
			if missReason == 0 {
				missReason = MissTTLExpired
			}
		case sw.net.Link(sw.id, rule.Action.NextHop) == nil:
			// Dangling rule (non-adjacent next hop): port drop.
			droppedRate += rate
			missReason = MissNoRule
		default:
			next[ttl] = outContribution{action: rule.Action, rate: rate}
		}
	}

	// Rule byte counter integrates all matched traffic.
	if rule != nil {
		var matched Rate
		for _, rate := range arr {
			matched += rate
		}
		rule.bytes.setRate(now, matched)
	}
	startedDropping := sw.updateHostCounters(now, key, deliveredRate, droppedRate)
	if startedDropping {
		sw.net.dropStarted(sw, now, key, missReason)
		if sw.missHandler != nil {
			sw.missHandler(key, missReason)
		}
	}

	// Diff previous vs next per (ttl, action) and emit changes.
	for ttl, pc := range prev {
		nc, ok := next[ttl]
		if ok && nc.action == pc.action && nc.rate == pc.rate {
			continue
		}
		sw.emit(now, key, ttl, pc.action, 0)
	}
	for ttl, nc := range next {
		pc, ok := prev[ttl]
		if ok && pc.action == nc.action && pc.rate == nc.rate {
			continue
		}
		sw.emit(now, key, ttl, nc.action, nc.rate)
	}
	if len(next) == 0 {
		delete(sw.out, key)
	} else {
		sw.out[key] = next
	}
}

// hostRates tracks the per-key delivered/dropped rates so aggregate
// counters stay correct when several keys change independently.
type hostRates struct {
	delivered Rate
	dropped   Rate
}

// updateHostCounters reconciles the per-key delivered/dropped rates and
// reports whether the key just transitioned into dropping.
func (sw *Switch) updateHostCounters(now sim.Time, key FlowKey, delivered, dropped Rate) bool {
	if sw.hostByKey == nil {
		sw.hostByKey = make(map[FlowKey]hostRates)
	}
	prev := sw.hostByKey[key]
	if prev.delivered == delivered && prev.dropped == dropped {
		return false
	}
	sw.delivered.setRate(now, sw.delivered.rate-prev.delivered+delivered)
	sw.dropped.setRate(now, sw.dropped.rate-prev.dropped+dropped)
	if delivered == 0 && dropped == 0 {
		delete(sw.hostByKey, key)
	} else {
		sw.hostByKey[key] = hostRates{delivered: delivered, dropped: dropped}
	}
	return prev.dropped == 0 && dropped > 0
}

// emit updates the outgoing link contribution for (key, ttl) and schedules
// the arrival-front at the downstream switch.
func (sw *Switch) emit(now sim.Time, key FlowKey, ttl int, action Action, rate Rate) {
	link := sw.net.Link(sw.id, action.NextHop)
	if link == nil {
		// A rule pointing at a non-adjacent switch: traffic is dropped at
		// the port. Count it.
		return
	}
	link.setContribution(now, key, ttl, rate)
	peer := sw.net.Switch(action.NextHop)
	port := [2]graph.NodeID{sw.id, action.NextHop}
	delay := sim.Time(link.spec.Delay)
	sw.net.K.At(now+delay, func() {
		peer.setInput(port, key, ttl-1, rate)
	})
}
