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

// RatePoint is one step of a link's total-rate timeline.
type RatePoint struct {
	At   sim.Time
	Rate Rate
}

// Overload is a maximal interval during which a link's total rate exceeded
// its capacity. End is -1 while the overload is still open.
type Overload struct {
	Start sim.Time
	End   sim.Time
	Peak  Rate
}

// Duration returns the overload's length, treating an open interval as
// running until now.
func (o Overload) Duration(now sim.Time) sim.Time {
	end := o.End
	if end < 0 {
		end = now
	}
	return end - o.Start
}

// Link is an emulated unidirectional link: capacity, propagation delay,
// per-flow-key contributions, a byte counter and an overload recorder.
type Link struct {
	net  *Network
	spec graph.Link

	contrib map[FlowKey]map[int]Rate
	total   Rate
	bytes   counter

	timeline  []RatePoint
	overloads []Overload
	peak      Rate
}

func newLink(n *Network, spec graph.Link) *Link {
	return &Link{
		net:     n,
		spec:    spec,
		contrib: make(map[FlowKey]map[int]Rate),
	}
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

// Timeline returns the total-rate change points in order.
func (l *Link) Timeline() []RatePoint {
	return append([]RatePoint(nil), l.timeline...)
}

// Overloads returns the over-capacity intervals recorded so far.
func (l *Link) Overloads() []Overload {
	return append([]Overload(nil), l.overloads...)
}

// setContribution updates the (key, ttl) contribution at time now.
func (l *Link) setContribution(now sim.Time, key FlowKey, ttl int, rate Rate) {
	byTTL, ok := l.contrib[key]
	if !ok {
		if rate == 0 {
			return
		}
		byTTL = make(map[int]Rate)
		l.contrib[key] = byTTL
	}
	old := byTTL[ttl]
	if old == rate {
		return
	}
	if rate == 0 {
		delete(byTTL, ttl)
		if len(byTTL) == 0 {
			delete(l.contrib, key)
		}
	} else {
		byTTL[ttl] = rate
	}
	l.setTotal(now, l.total-old+rate)
	if l.net.trace != nil {
		// One utilization record per contribution change: the key's
		// aggregate rate (across TTL bands) plus the link total, capacity
		// and delay. Trace consumers reconstruct per-link load and the
		// in-flight hop timing from these (see internal/audit).
		var keyRate Rate
		for _, r := range l.contrib[key] {
			keyRate += r
		}
		l.net.trace.Point(int64(now), obs.EvEmuRate,
			obs.A(obs.KeyLink, l.net.G.Name(l.spec.From)+">"+l.net.G.Name(l.spec.To)),
			obs.A(obs.KeyKey, key.String()),
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
	// Compress the timeline: a same-time change overwrites.
	if n := len(l.timeline); n > 0 && l.timeline[n-1].At == now {
		l.timeline[n-1].Rate = total
	} else {
		l.timeline = append(l.timeline, RatePoint{At: now, Rate: total})
	}
	over := total > l.Capacity()
	openIdx := -1
	if n := len(l.overloads); n > 0 && l.overloads[n-1].End < 0 {
		openIdx = n - 1
	}
	switch {
	case over && openIdx < 0:
		l.overloads = append(l.overloads, Overload{Start: now, End: -1, Peak: total})
	case over && openIdx >= 0:
		if total > l.overloads[openIdx].Peak {
			l.overloads[openIdx].Peak = total
		}
	case !over && openIdx >= 0:
		o := l.overloads[openIdx]
		l.overloads[openIdx].End = now
		if o.Start == now {
			// Zero-length blip (rate changed twice at the same instant):
			// discard.
			l.overloads = l.overloads[:openIdx]
		} else {
			l.net.overloadClosed(l, o.Start, now, o.Peak)
		}
	}
}
