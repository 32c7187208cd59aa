package dynflow

import (
	"github.com/chronus-sdn/chronus/internal/graph"
)

// DelaySlack returns, for each switch v of vs, the largest delay
// d <= horizon such that s with v's activation moved to s.Times[v]+d' (all
// other switches unchanged) validates clean for every d' in 1..d. The
// schedule itself must validate clean; the caller checks that.
//
// The values are those of running Validate once per (switch, delay), but
// the work is incremental. Delaying v from d−1 to d ticks changes the
// forwarding decision of exactly the units that reach v at tick
// s.Times[v]+d−1, and moves the end of the validation window by at most
// one emission. So the traces of the clean schedule are stored once, and
// each step diverts only those units — their loads from v onward are
// removed and the unit is re-traced from v under its old rule — adjusts
// the window's pure-final tail, and compares just the link instances whose
// load the step raised against capacity. A switch costs
// O(window × path) to index plus O(path) per delay tick examined.
func DelaySlack(in *Instance, s *Schedule, vs []graph.NodeID, horizon Tick) []Tick {
	c := newSlackCert(in, s)
	out := make([]Tick, len(vs))
	for i, v := range vs {
		out[i] = c.walk(v, s.Times[v], horizon)
	}
	in.Obs.Counter(slackSteps).Add(c.steps)
	in.Obs.Counter(slackRetraced).Add(c.retraced)
	return out
}

// slackCert is the state of one DelaySlack call: the clean schedule's
// traces and loads, plus the scratch one switch's walk edits and undoes.
type slackCert struct {
	tr         *tracer
	times      []Tick // tr's schedule view, edited by walk
	start, end Tick   // emissions start..end are stored; later ones are pure-final
	demand     graph.Capacity

	// hops[off[i]:off[i+1]] is the trace of emission start+i under s and
	// arrive[i] its delivery tick. Emission end already follows the pure
	// final configuration, so every later one is its trace shifted in time
	// (see emission).
	hops   []traceHop
	off    []int32
	arrive []Tick

	// load[(tick−start)×len(tr.links) + ordinal] is the demand departing on
	// a footprint link at a tick; the array grows tick by tick as walks
	// reach further out.
	load    []graph.Capacity
	base    []graph.Capacity // load under s itself, restored after each walk
	hi      int              // load[hi:] is untouched since the last restore
	baseTop Tick             // last emission of s's window: its latest arrival

	// Per-walk scratch.
	cur     []Tick // current arrival of emissions start..end_d
	raised  []raisedLoad
	head    []int32 // by tick−start: first stored emission reaching v then
	next    []int32 // by emission: next one reaching v at the same tick
	at      []int32 // by emission: index of v's hop in its trace, or −1
	hits    []int   // emissions diverted by the current step
	retrace []traceHop

	steps, retraced int64
}

func newSlackCert(in *Instance, s *Schedule) *slackCert {
	tr := tracerFor(in)
	c := &slackCert{
		tr:     tr,
		times:  tr.view(s),
		start:  s.Start - Tick(in.Init.Delay(in.G)),
		end:    s.End(),
		demand: in.Demand,
	}

	n := int(c.end-c.start) + 1
	c.off = make([]int32, 0, n+1)
	c.arrive = make([]Tick, 0, n)
	c.baseTop = c.end
	for e := c.start; e <= c.end; e++ {
		c.off = append(c.off, int32(len(c.hops)))
		_, _, a := tr.trace(c.times, e, 0, &c.hops)
		c.arrive = append(c.arrive, a)
		c.baseTop = max(c.baseTop, a)
	}
	c.off = append(c.off, int32(len(c.hops)))
	for i := 0; i <= int(c.baseTop-c.start); i++ {
		c.apply(i, 1)
	}
	c.base, c.hi = append(c.base, c.load...), 0

	c.head = make([]int32, c.baseTop-c.start+1)
	c.next = make([]int32, n)
	c.at = make([]int32, n)
	return c
}

// emission returns the trace of emission start+i under s and the ticks to
// add to its hops: stored as is up to end, the last stored trace shifted
// after that.
func (c *slackCert) emission(i int) ([]traceHop, Tick) {
	if last := len(c.arrive) - 1; i > last {
		return c.hops[c.off[last]:], Tick(i - last)
	}
	return c.hops[c.off[i]:c.off[i+1]], 0
}

// apply adds (sign +1) or removes (−1) the loads of emission i's trace
// under s.
func (c *slackCert) apply(i int, sign graph.Capacity) {
	hs, shift := c.emission(i)
	c.edit(hs, shift, sign)
}

// raisedLoad is a load entry the current step added to, with the capacity
// it must stay within.
type raisedLoad struct {
	key int
	cap graph.Capacity
}

// edit adds or removes the loads of hs shifted by shift ticks, noting the
// entries it raises and how far into load it reached.
func (c *slackCert) edit(hs []traceHop, shift Tick, sign graph.Capacity) {
	rows := len(c.tr.links)
	for _, h := range hs {
		key := int(h.tick+shift-c.start)*rows + int(h.ord)
		if key >= len(c.load) {
			c.load = append(c.load, make([]graph.Capacity, max(key+1, 2*len(c.load))-len(c.load))...)
		}
		c.load[key] += sign * c.demand
		c.hi = max(c.hi, key+1)
		if sign > 0 {
			c.raised = append(c.raised, raisedLoad{key, c.tr.links[h.ord].Cap})
		}
	}
}

// walk delays v, scheduled at tv, one tick at a time and returns the last
// delay before the first violation, or horizon. It leaves the loads as it
// found them.
func (c *slackCert) walk(v graph.NodeID, tv, horizon Tick) Tick {
	inGraph := v >= 0 && int(v) < len(c.times)
	defer func() {
		if inGraph {
			c.times[v] = tv
		}
		// A walk only edits departures from tick tv on.
		if lo := max(0, int(tv-c.start)*len(c.tr.links)); lo < c.hi {
			n := copy(c.load[lo:c.hi], c.base[min(lo, len(c.base)):])
			clear(c.load[lo+n : c.hi])
		}
		c.hi = 0
	}()

	// Index the stored emissions by the tick they reach v. A trace visits
	// a switch once, and the hops before v do not depend on v's
	// activation, so this holds for every delay.
	for k := range c.head {
		c.head[k] = -1
	}
	last := len(c.arrive) - 1
	for i := 0; i <= last; i++ {
		c.at[i] = -1
		hs, _ := c.emission(i)
		for j, h := range hs {
			if graph.NodeID(h.node) == v {
				c.at[i] = int32(j)
				k := h.tick - c.start
				c.next[i], c.head[k] = c.head[k], int32(i)
				break
			}
		}
	}
	// Pure-final emissions reach v a fixed offset after the last stored
	// one does, if at all.
	finalHit := never
	if j := c.at[last]; j >= 0 {
		finalHit = c.hops[c.off[last]+j].tick
	}

	top, latest, endD := c.baseTop, c.baseTop, c.end
	c.cur = append(c.cur[:0], c.arrive...)
	for d := Tick(1); d <= horizon; d++ {
		c.steps++
		c.raised = c.raised[:0]
		if inGraph {
			c.times[v] = tv + d
		}
		// The trial's schedule end moves with v once v is the last to
		// activate; the emission at the new end joins the ones that decide
		// how far the window extends.
		if tv+d > endD {
			endD = tv + d
			a := c.arrive[last] + (endD - c.end)
			c.cur = append(c.cur, a)
			latest = max(latest, a)
		}

		// Divert every unit that reaches v one tick before the trial
		// activation: under the previous trial it still took the new rule.
		hit := tv + d - 1
		c.hits = c.hits[:0]
		if k := hit - c.start; k >= 0 && int(k) < len(c.head) {
			for i := c.head[k]; i >= 0; i = c.next[i] {
				c.hits = append(c.hits, int(i))
			}
		}
		if hit > finalHit {
			c.hits = append(c.hits, last+int(hit-finalHit))
		}
		rescan := false
		for _, i := range c.hits {
			hs, shift := c.emission(i)
			j := int(c.at[min(i, last)]) // pure-final emissions follow the last stored trace
			c.retraced++
			c.edit(hs[j:], shift, -1)
			c.tr.stamp++
			for _, h := range hs[:j+1] {
				c.tr.visit[h.node] = c.tr.stamp
			}
			c.retrace = c.retrace[:0]
			status, _, a := c.tr.follow(c.times, v, hit, 0, &c.retrace)
			if status != Delivered {
				return d - 1
			}
			c.edit(c.retrace, 0, 1)
			if a >= latest {
				latest = a
			} else if c.cur[i] == latest {
				rescan = true
			}
			c.cur[i] = a
		}

		// The window ends at the latest arrival among emissions up to the
		// trial's schedule end, which a diversion may have lowered.
		if rescan {
			latest = endD
			for _, a := range c.cur {
				latest = max(latest, a)
			}
		}
		for ; top < latest; top++ { // latest >= endD: the emission at endD arrives no earlier
			c.apply(int(top+1-c.start), 1)
		}
		for ; top > latest; top-- {
			c.apply(int(top-c.start), -1)
		}

		for _, r := range c.raised {
			if c.load[r.key] > r.cap {
				return d - 1
			}
		}
	}
	return horizon
}
