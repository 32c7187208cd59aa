package emu

import (
	"github.com/chronus-sdn/chronus/internal/graph"
	"github.com/chronus-sdn/chronus/internal/obs"
	"github.com/chronus-sdn/chronus/internal/sim"
)

// counter integrates a piecewise-constant rate over virtual time, the way
// hardware byte counters accumulate traffic.
type counter struct {
	since sim.Time
	total float64
	rate  Rate
}

// setRate closes the current integration segment at time now and continues
// at the new rate.
func (c *counter) setRate(now sim.Time, rate Rate) {
	c.total += float64(c.rate) * float64(now-c.since)
	c.since = now
	c.rate = rate
}

// at returns the integrated value at time now (now must be >= the last
// change).
func (c *counter) at(now sim.Time) float64 {
	return c.total + float64(c.rate)*float64(now-c.since)
}

// Link is an emulated unidirectional link: capacity, propagation delay,
// the total offered rate, a byte counter and overload counters. It keeps
// live state only; the history of its rate changes and overload intervals
// is the trace's (emu.rate and emu.overload). The per-key contributions
// live with the upstream switch, the only sender onto the link
// (keyState.out).
type Link struct {
	net   *Network
	spec  graph.Link
	label string // "from>to", the trace's link attribute

	total Rate
	bytes counter

	// fronts are the rate changes in flight on the link, oldest first from
	// fronts[head]; land, bound once, delivers the oldest. The delay never
	// changes and the kernel runs same-time events in scheduling order, so
	// fronts land in the order they were sent.
	fronts []front
	head   int
	land   func()

	peak       Rate
	lastChange sim.Time // tick of the last total-rate change

	// Overload counters: closed counts the over-capacity intervals that
	// ended, closedTicks their total length; while the link is over
	// capacity, overStart and overPeak describe the open interval.
	closed      int
	closedTicks sim.Time
	over        bool
	overStart   sim.Time
	overPeak    Rate
}

// front is one (key, ttl) band's rate change in flight on a link: once
// it lands, the band arrives downstream at rate with ttl hops left.
type front struct {
	key  FlowKey
	ttl  int
	rate Rate
}

func newLink(n *Network, spec graph.Link) *Link {
	l := &Link{
		net:   n,
		spec:  spec,
		label: n.G.Name(spec.From) + ">" + n.G.Name(spec.To),
	}
	l.land = l.landOldest
	return l
}

// send puts a front on the link at time now, to land one delay later.
func (l *Link) send(now sim.Time, f front) {
	l.fronts = append(l.fronts, f)
	l.net.K.At(now+sim.Time(l.spec.Delay), l.land)
}

// landOldest delivers the oldest front in flight to the downstream
// switch. The queue's storage is reused once it drains, and compacted
// when the landed fronts fill half of it.
func (l *Link) landOldest() {
	f := l.fronts[l.head]
	l.head++
	switch {
	case l.head == len(l.fronts):
		l.fronts, l.head = l.fronts[:0], 0
	case l.head >= 32 && 2*l.head >= len(l.fronts):
		l.fronts = l.fronts[:copy(l.fronts, l.fronts[l.head:])]
		l.head = 0
	}
	peer := l.net.switches[l.spec.To]
	peer.arrive(f.key, peer.state(f.key), l.spec.From, f.ttl, f.rate)
}

// From returns the upstream switch ID.
func (l *Link) From() graph.NodeID { return l.spec.From }

// To returns the downstream switch ID.
func (l *Link) To() graph.NodeID { return l.spec.To }

// Capacity returns the link capacity.
func (l *Link) Capacity() Rate { return Rate(l.spec.Cap) }

// Rate returns the current total offered rate.
func (l *Link) Rate() Rate { return l.total }

// Peak returns the highest total rate ever offered.
func (l *Link) Peak() Rate { return l.peak }

// Bytes returns the integrated traffic volume at time now (unit·ticks).
func (l *Link) Bytes() float64 { return l.bytes.at(l.net.K.Now()) }

// LastChange returns the tick of the last total-rate change (0 if the
// rate never changed).
func (l *Link) LastChange() sim.Time { return l.lastChange }

// OverloadCount returns the number of over-capacity intervals so far, the
// open one included.
func (l *Link) OverloadCount() int {
	if l.over {
		return l.closed + 1
	}
	return l.closed
}

// OverloadTicks returns the time spent above capacity by now, the open
// interval included.
func (l *Link) OverloadTicks() sim.Time {
	if l.over {
		return l.closedTicks + l.net.K.Now() - l.overStart
	}
	return l.closedTicks
}

// change records that one (ttl) band of the key named key changed on the
// link at time now: the total moves by delta, and keyRate of the key is
// left on the link.
func (l *Link) change(now sim.Time, key string, delta, keyRate Rate) {
	l.setTotal(now, l.total+delta)
	if l.net.trace != nil {
		// One utilization record per contribution change: the key's
		// aggregate rate (across TTL bands) plus the link total, capacity
		// and delay. Trace consumers reconstruct per-link load and the
		// in-flight hop timing from these (see internal/audit).
		l.net.trace.Point(int64(now), obs.EvEmuRate,
			obs.A(obs.KeyLink, l.label),
			obs.A(obs.KeyKey, key),
			obs.A(obs.KeyRate, int64(keyRate)),
			obs.A(obs.KeyTotal, int64(l.total)),
			obs.A(obs.KeyCap, int64(l.spec.Cap)),
			obs.A(obs.KeyDelay, int64(l.spec.Delay)))
	}
}

func (l *Link) setTotal(now sim.Time, total Rate) {
	if total == l.total {
		return
	}
	l.bytes.setRate(now, total)
	l.total = total
	if total > l.peak {
		l.peak = total
	}
	l.lastChange = now
	switch over := total > l.Capacity(); {
	case over && !l.over:
		l.over, l.overStart, l.overPeak = true, now, total
	case over:
		l.overPeak = max(l.overPeak, total)
	case l.over:
		l.over = false
		// A zero-length blip (the rate changed twice at the same instant)
		// is discarded.
		if l.overStart != now {
			l.closed++
			l.closedTicks += now - l.overStart
			l.net.overloadClosed(l, l.overStart, now, l.overPeak)
		}
	}
}
