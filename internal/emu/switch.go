package emu

import (
	"fmt"
	"slices"
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
	net   *Network
	id    graph.NodeID
	ports []*Link // outgoing links, ordered by downstream ID

	rules map[FlowKey]*Rule
	// keys holds a record for each key whose traffic arrives here.
	keys map[FlowKey]*keyState

	delivered counter // traffic handed to the local host
	dropped   counter // traffic without a matching rule or with expired TTL

	// missHandler, when set, fires once each time a key transitions from
	// not-dropping to dropping — the emulator's PacketIn hook. It runs
	// inside the switch's reroute and must not mutate the network; it may
	// schedule events that do.
	missHandler func(key FlowKey, reason MissReason)
}

// keyState is one switch's record of one key: what arrives, what it
// forwards and what it hands to the host or drops. It exists while any
// traffic of the key arrives; out and host derive from the arrivals, so
// with the last arrival band gone they are empty too and the record is
// released.
type keyState struct {
	name string // FlowKey.String, from the network's cache
	// in holds one band per (upstream switch, ttl) with a positive rate,
	// in no particular order.
	in []inBand
	// out is the forwarded contribution on via, one band per ttl in
	// ascending ttl order. It is also the (via, key) record of the link:
	// only this switch sends key's traffic onto its own out-links. next
	// is out's double buffer, rebuilt by each reroute.
	out, next []ttlRate
	via       *Link
	host      hostRates
}

type inBand struct {
	from graph.NodeID // upstream switch, or hostPort
	ttl  int
	rate Rate
}

type ttlRate struct {
	ttl  int
	rate Rate
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

func newSwitch(n *Network, id graph.NodeID) *Switch {
	return &Switch{
		net:   n,
		id:    id,
		rules: make(map[FlowKey]*Rule),
		keys:  make(map[FlowKey]*keyState),
	}
}

// port returns the outgoing link toward next; nil if not adjacent.
func (sw *Switch) port(next graph.NodeID) *Link {
	for _, l := range sw.ports {
		if l.spec.To == next {
			return l
		}
	}
	return nil
}

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
	sw.reroute(key, sw.keys[key])
}

// RemoveRule deletes the entry for key.
func (sw *Switch) RemoveRule(key FlowKey) {
	if _, ok := sw.rules[key]; !ok {
		return
	}
	delete(sw.rules, key)
	sw.reroute(key, sw.keys[key])
}

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

// state returns key's record, creating it if key has none.
func (sw *Switch) state(key FlowKey) *keyState {
	ks := sw.keys[key]
	if ks == nil {
		ks = sw.net.newKeyState(key)
		sw.keys[key] = ks
	}
	return ks
}

// arrive records that (key, ttl) traffic arrives from upstream switch from
// at the given rate, then re-evaluates forwarding for key.
func (sw *Switch) arrive(key FlowKey, ks *keyState, from graph.NodeID, ttl int, rate Rate) {
	i := slices.IndexFunc(ks.in, func(b inBand) bool { return b.from == from && b.ttl == ttl })
	switch {
	case i < 0:
		if rate != 0 {
			ks.in = append(ks.in, inBand{from: from, ttl: ttl, rate: rate})
		}
	case rate == 0:
		last := len(ks.in) - 1
		ks.in[i] = ks.in[last]
		ks.in = ks.in[:last]
	default:
		ks.in[i].rate = rate
	}
	sw.reroute(key, ks)
}

// reroute recomputes the forwarding of key's traffic after an arrival or
// rule change, diffing against the previous contribution and propagating
// rate-change fronts downstream with the link delay. ks is key's record,
// nil when no traffic of key arrives here.
//
// The diff emits in a fixed order: first a zero for every band of the old
// contribution that is gone or changed (onto the old via link, ascending
// ttl), then the new rate of every band that is new or changed (onto the
// new via link, ascending ttl). A changed band is thus withdrawn before
// its new rate is added, and the trace and the events scheduled
// downstream follow from the inputs alone.
func (sw *Switch) reroute(key FlowKey, ks *keyState) {
	now := sw.net.K.Now()
	rule := sw.rules[key]
	if ks == nil {
		if rule != nil {
			rule.bytes.setRate(now, 0)
		}
		return
	}

	// Aggregate the arrivals by ttl, ascending, into the double buffer.
	next := ks.next[:0]
	var matched Rate
	for _, b := range ks.in {
		matched += b.rate
		next = addBand(next, b.ttl, b.rate)
	}
	var via *Link
	var droppedRate, deliveredRate Rate
	missReason := MissReason(0)
	switch {
	case rule == nil:
		droppedRate, missReason = matched, MissNoRule
		next = next[:0]
	case rule.Action.ToHost:
		deliveredRate = matched
		next = next[:0]
	default:
		// Expired bands lead the ascending order.
		expired := 0
		for expired < len(next) && next[expired].ttl <= 0 {
			droppedRate += next[expired].rate
			expired++
		}
		if expired > 0 {
			missReason = MissTTLExpired
		}
		via = sw.port(rule.Action.NextHop)
		switch {
		case via == nil:
			// Dangling rule (non-adjacent next hop): port drop.
			if expired < len(next) {
				missReason = MissNoRule
			}
			droppedRate = matched
			next = next[:0]
		case expired > 0:
			next = next[:copy(next, next[expired:])]
		}
	}

	// Rule byte counter integrates all matched traffic.
	if rule != nil {
		rule.bytes.setRate(now, matched)
	}
	startedDropping := sw.updateHostCounters(now, ks, deliveredRate, droppedRate)
	if startedDropping {
		sw.net.dropStarted(sw, now, ks.name, missReason)
		if sw.missHandler != nil {
			sw.missHandler(key, missReason)
		}
	}

	// Diff the old contribution against the new one. onOld and onNew
	// are key's rate on the old and the new via link as the diff
	// proceeds.
	prev := ks.out
	same := via == ks.via
	var onOld Rate
	for _, b := range prev {
		onOld += b.rate
	}
	for _, pb := range prev {
		if same && slices.Contains(next, pb) {
			continue
		}
		onOld -= pb.rate
		sw.emit(now, key, ks.name, ks.via, pb.ttl, 0, -pb.rate, onOld)
	}
	var onNew Rate
	if same {
		onNew = onOld
	}
	for _, nb := range next {
		if same && slices.Contains(prev, nb) {
			continue
		}
		onNew += nb.rate
		sw.emit(now, key, ks.name, via, nb.ttl, nb.rate, nb.rate, onNew)
	}
	ks.out, ks.next, ks.via = next, prev[:0], via

	if len(ks.in) == 0 {
		delete(sw.keys, key)
		sw.net.releaseKeyState(key, ks)
	}
}

// addBand adds rate to the band of ttl in bands, which is in ascending ttl
// order, inserting the band if absent.
func addBand(bands []ttlRate, ttl int, rate Rate) []ttlRate {
	i, found := slices.BinarySearchFunc(bands, ttl, func(b ttlRate, ttl int) int { return b.ttl - ttl })
	if found {
		bands[i].rate += rate
		return bands
	}
	return slices.Insert(bands, i, ttlRate{ttl: ttl, rate: rate})
}

// hostRates tracks the per-key delivered/dropped rates so aggregate
// counters stay correct when several keys change independently.
type hostRates struct {
	delivered Rate
	dropped   Rate
}

// updateHostCounters reconciles key's delivered/dropped rates and reports
// whether the key just transitioned into dropping.
func (sw *Switch) updateHostCounters(now sim.Time, ks *keyState, delivered, dropped Rate) bool {
	prev := ks.host
	if prev.delivered == delivered && prev.dropped == dropped {
		return false
	}
	sw.delivered.setRate(now, sw.delivered.rate-prev.delivered+delivered)
	sw.dropped.setRate(now, sw.dropped.rate-prev.dropped+dropped)
	ks.host = hostRates{delivered: delivered, dropped: dropped}
	return prev.dropped == 0 && dropped > 0
}

// emit changes the (key, ttl) band on link to rate, which moves the link's
// total by delta and leaves keyRate of key on it, and sends the front
// that brings the change to the downstream switch.
func (sw *Switch) emit(now sim.Time, key FlowKey, name string, link *Link, ttl int, rate, delta, keyRate Rate) {
	link.change(now, name, delta, keyRate)
	link.send(now, front{key: key, ttl: ttl - 1, rate: rate})
}
