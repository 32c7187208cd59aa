package controller

import (
	"fmt"
	"sort"

	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/emu"
	"github.com/chronus-sdn/chronus/internal/graph"
	"github.com/chronus-sdn/chronus/internal/obs"
	"github.com/chronus-sdn/chronus/internal/ofp"
	"github.com/chronus-sdn/chronus/internal/sim"
)

// beginExecute opens a ctl.execute span for one execution strategy and
// pushes it as the ambient parent; the returned func flushes what a
// failed executor queued (see flushOnError), pops and ends the span,
// stamping the outcome from *err (use with a named return and defer).
func (c *Controller) beginExecute(mode string, switches int, err *error) func() {
	sp := c.opts.Trace.StartSpan(int64(c.h.Now()), "ctl.execute", c.curSpan(),
		obs.A("mode", mode), obs.A("switches", switches))
	c.pushSpan(sp.SpanID())
	return func() {
		c.flushOnError(err)
		c.popSpan()
		outcome := "ok"
		if *err != nil {
			outcome = "error"
		}
		sp.End(int64(c.h.Now()), obs.A("outcome", outcome))
	}
}

// FlowSpec describes one traffic aggregate to provision.
type FlowSpec struct {
	Name string
	Tag  emu.Tag
	Path graph.Path
	Rate emu.Rate
}

// Provision installs the flow's rules destination-first (so no packet ever
// hits a missing rule), barriers every switch, and starts the injection at
// the source.
func (c *Controller) Provision(f FlowSpec) (err error) {
	defer c.flushOnError(&err)
	if len(f.Path) < 2 {
		return fmt.Errorf("controller: flow %q path too short", f.Name)
	}
	dst := f.Path.Dest()
	if _, err := c.send(dst, &ofp.FlowMod{
		Command: ofp.FlowAdd, Flow: f.Name, Tag: uint16(f.Tag), Action: ofp.ActionToHost,
	}); err != nil {
		return err
	}
	for i := len(f.Path) - 2; i >= 0; i-- {
		if _, err := c.send(f.Path[i], &ofp.FlowMod{
			Command: ofp.FlowAdd, Flow: f.Name, Tag: uint16(f.Tag),
			Action: ofp.ActionOutput, NextHop: int32(f.Path[i+1]),
		}); err != nil {
			return err
		}
	}
	if err := c.Barrier(f.Path...); err != nil {
		return err
	}
	src := f.Path.Source()
	key := emu.FlowKey{Flow: f.Name, Tag: f.Tag}
	c.h.Do(func() {
		c.h.Net.Inject(src, key, f.Rate)
	})
	return nil
}

// StopFlow halts the injection at the flow's source.
func (c *Controller) StopFlow(f FlowSpec) {
	key := emu.FlowKey{Flow: f.Name, Tag: f.Tag}
	src := f.Path.Source()
	c.h.Do(func() { c.h.Net.Inject(src, key, 0) })
}

// ExecuteTimed performs the Chronus update (Algorithm 5, time-triggered
// variant): every switch in the schedule receives one timed FlowMod whose
// ExecuteAt is the scheduled tick, followed by a barrier confirming that
// all switches have accepted their scheduled updates. The data plane then
// flips by itself as local clocks reach the scheduled instants; the caller
// advances virtual time (h.AdvanceTo) past the schedule end.
//
// The schedule's ticks are interpreted as absolute virtual times; they must
// lie in the future when the FlowMods arrive, i.e. leave at least the
// control latency of headroom.
func (c *Controller) ExecuteTimed(in *dynflow.Instance, s *dynflow.Schedule, f FlowSpec) (err error) {
	defer c.beginExecute("timed", len(s.Times), &err)()
	var ids []graph.NodeID
	for v := range s.Times {
		ids = append(ids, v)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, v := range ids {
		tv := s.Times[v]
		nh := in.Fin.NextHop(v)
		if nh == graph.Invalid {
			return fmt.Errorf("controller: switch %s has no final next hop", c.h.G.Name(v))
		}
		cmd := ofp.FlowModify
		if in.OldNext(v) == graph.Invalid {
			cmd = ofp.FlowAdd
		}
		if _, err := c.send(v, &ofp.FlowMod{
			Command: cmd, Flow: f.Name, Tag: uint16(f.Tag),
			Action: ofp.ActionOutput, NextHop: int32(nh),
			ExecuteAt: int64(tv),
		}); err != nil {
			return err
		}
	}
	return c.Barrier(ids...)
}

// ExecuteBarrierPaced is the literal Algorithm 5 loop used when switches
// lack timed-update support: for each distinct schedule tick, send the
// round's FlowMods immediately, send barrier requests, wait for all barrier
// replies, then sleep one time unit (advance virtual time). Because the
// FlowMods of a round reach their switches after unpredictable control
// latencies, rounds exhibit exactly the intra-round asynchrony the paper's
// motivating example describes.
func (c *Controller) ExecuteBarrierPaced(in *dynflow.Instance, s *dynflow.Schedule, f FlowSpec, unit sim.Time) (err error) {
	defer c.beginExecute("rounds", len(s.Times), &err)()
	if unit <= 0 {
		unit = 1
	}
	for _, round := range s.Rounds() {
		rsp := c.opts.Trace.StartSpan(int64(c.h.Now()), "ctl.round", c.curSpan(),
			obs.A("round", round), obs.A("switches", len(s.At(round))))
		c.pushSpan(rsp.SpanID())
		endRound := func(e error) error {
			c.popSpan()
			outcome := "ok"
			if e != nil {
				outcome = "error"
			}
			rsp.End(int64(c.h.Now()), obs.A("outcome", outcome))
			return e
		}
		for _, v := range s.At(round) {
			nh := in.Fin.NextHop(v)
			if nh == graph.Invalid {
				return endRound(fmt.Errorf("controller: switch %s has no final next hop", c.h.G.Name(v)))
			}
			cmd := ofp.FlowModify
			if in.OldNext(v) == graph.Invalid {
				cmd = ofp.FlowAdd
			}
			if _, serr := c.send(v, &ofp.FlowMod{
				Command: cmd, Flow: f.Name, Tag: uint16(f.Tag),
				Action: ofp.ActionOutput, NextHop: int32(nh),
			}); serr != nil {
				return endRound(serr)
			}
		}
		if berr := c.Barrier(s.At(round)...); berr != nil {
			return endRound(berr)
		}
		c.h.AdvanceBy(unit) // "Sleep for one time unit."
		endRound(nil)
	}
	return nil
}

// ExecuteTwoPhase performs the TP baseline: phase one installs the final
// path's rules under a fresh version tag everywhere and barriers; phase two
// flips the ingress stamp so newly emitted traffic carries the new tag;
// after the old traffic drains, the old version's rules are deleted.
func (c *Controller) ExecuteTwoPhase(in *dynflow.Instance, f FlowSpec, newTag emu.Tag) (err error) {
	defer c.beginExecute("twophase", len(in.Fin), &err)()
	// Phase 1: install tagged copies along the final path, dest-first.
	dst := in.Fin.Dest()
	if _, err := c.send(dst, &ofp.FlowMod{
		Command: ofp.FlowAdd, Flow: f.Name, Tag: uint16(newTag), Action: ofp.ActionToHost,
	}); err != nil {
		return err
	}
	for i := len(in.Fin) - 2; i >= 0; i-- {
		if _, err := c.send(in.Fin[i], &ofp.FlowMod{
			Command: ofp.FlowAdd, Flow: f.Name, Tag: uint16(newTag),
			Action: ofp.ActionOutput, NextHop: int32(in.Fin[i+1]),
		}); err != nil {
			return err
		}
	}
	if err := c.Barrier(in.Fin...); err != nil {
		return err
	}
	// Phase 2: restamp at the ingress — one atomic event.
	src := in.Source()
	oldKey := emu.FlowKey{Flow: f.Name, Tag: f.Tag}
	newKey := emu.FlowKey{Flow: f.Name, Tag: newTag}
	c.h.Do(func() {
		c.h.Net.Inject(src, oldKey, 0)
		c.h.Net.Inject(src, newKey, f.Rate)
	})
	// Drain, then garbage-collect the old version.
	c.h.AdvanceBy(sim.Time(in.Init.Delay(in.G)) + 1)
	for _, v := range in.Init {
		if _, err := c.send(v, &ofp.FlowMod{
			Command: ofp.FlowDelete, Flow: f.Name, Tag: uint16(f.Tag),
		}); err != nil {
			return err
		}
	}
	return c.Barrier(in.Init...)
}

// ProbeClocks sends every listed switch one timed no-op FlowMod (a
// host-action rule on a dedicated probe flow that carries no traffic)
// scheduled for the same reference tick, followed by a barrier. The
// timed fires emit sw.apply events whose skew samples — and the
// barrier's send/receive span pair — feed the clock-quality estimator
// (internal/clock) without disturbing any real flow. The caller
// advances virtual time past `at` for the fires to happen.
func (c *Controller) ProbeClocks(flow string, at sim.Time, ids ...graph.NodeID) (err error) {
	defer c.beginExecute("clockprobe", len(ids), &err)()
	for _, v := range ids {
		if _, err := c.send(v, &ofp.FlowMod{
			Command: ofp.FlowAdd, Flow: flow, Action: ofp.ActionToHost,
			ExecuteAt: int64(at),
		}); err != nil {
			return err
		}
	}
	return c.Barrier(ids...)
}

// DeleteFlow removes the named flow's untagged rule from every listed
// switch and barriers. ProbeClocks callers use it to garbage-collect
// the probe rules once the scheduled fires have happened.
func (c *Controller) DeleteFlow(flow string, ids ...graph.NodeID) (err error) {
	defer c.flushOnError(&err)
	for _, v := range ids {
		if _, err := c.send(v, &ofp.FlowMod{
			Command: ofp.FlowDelete, Flow: flow,
		}); err != nil {
			return err
		}
	}
	return c.Barrier(ids...)
}

// Sample is one bandwidth measurement of a link.
type Sample struct {
	At   sim.Time
	Rate float64 // units per tick, averaged over the sampling interval
}

// SampleLink measures the bandwidth consumption of link (from → to) the way
// the paper's prototype does: it polls the upstream switch's port byte
// counters over the control channel every interval ticks and divides the
// counter delta by the interval. It advances virtual time as it runs and
// returns count samples.
func (c *Controller) SampleLink(from, to graph.NodeID, interval sim.Time, count int) ([]Sample, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("controller: non-positive sampling interval %d", interval)
	}
	prev, err := c.portBytes(from, to)
	if err != nil {
		return nil, err
	}
	prevT := c.h.Now()
	var out []Sample
	for i := 0; i < count; i++ {
		c.h.AdvanceTo(prevT + interval)
		cur, err := c.portBytes(from, to)
		if err != nil {
			return nil, err
		}
		now := prevT + interval
		out = append(out, Sample{At: now, Rate: (cur - prev) / float64(interval)})
		prev, prevT = cur, now
	}
	return out, nil
}

// portBytes fetches the byte counter of the port on `from` facing `to`.
func (c *Controller) portBytes(from, to graph.NodeID) (float64, error) {
	x, err := c.send(from, &ofp.StatsRequest{Kind: ofp.StatsPorts})
	if err != nil {
		return 0, err
	}
	replies, err := c.await([]uint32{x})
	if err != nil {
		return 0, err
	}
	if err := checkErrors(replies); err != nil {
		return 0, err
	}
	reply, ok := replies[x].(*ofp.StatsReply)
	if !ok {
		return 0, fmt.Errorf("controller: unexpected stats reply %T", replies[x])
	}
	for _, p := range reply.Ports {
		if graph.NodeID(p.PeerID) == to {
			return float64(p.Bytes), nil
		}
	}
	return 0, fmt.Errorf("controller: switch %s reported no port toward %s", c.h.G.Name(from), c.h.G.Name(to))
}
