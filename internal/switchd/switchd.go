// Package switchd implements the switch agent: the software running
// "on" each emulated switch. It speaks the ofp control protocol, applies
// FlowMods to its emu.Switch — immediately or, for timed FlowMods, at the
// instant its local timesync clock reaches the scheduled time — and answers
// barriers, feature queries and statistics requests.
//
// Handle must be invoked from within a simulation event (or via a
// controller.Harness, which serializes external callers into the event
// loop); the agent itself is free of locking, like the rest of the
// emulation.
package switchd

import (
	"fmt"

	"github.com/chronus-sdn/chronus/internal/emu"
	"github.com/chronus-sdn/chronus/internal/graph"
	"github.com/chronus-sdn/chronus/internal/obs"
	"github.com/chronus-sdn/chronus/internal/ofp"
	"github.com/chronus-sdn/chronus/internal/sim"
	"github.com/chronus-sdn/chronus/internal/timesync"
)

// Agent is one switch's control agent.
type Agent struct {
	net   *emu.Network
	sw    *emu.Switch
	id    graph.NodeID
	clock *timesync.Ensemble // nil means a perfect clock

	// scheduled counts timed FlowMods accepted but not yet applied.
	scheduled int
	applied   int

	notify func(ofp.Msg)

	met   agentMetrics
	trace *obs.Tracer
}

// New builds the agent for switch id. clock may be nil for a perfect local
// clock.
func New(net *emu.Network, id graph.NodeID, clock *timesync.Ensemble) *Agent {
	sw := net.Switch(id)
	if sw == nil {
		panic(fmt.Sprintf("switchd: no switch %d", id))
	}
	a := &Agent{net: net, sw: sw, id: id, clock: clock}
	sw.SetMissHandler(func(key emu.FlowKey, reason emu.MissReason) {
		if a.notify == nil {
			return
		}
		r := ofp.ReasonNoMatch
		if reason == emu.MissTTLExpired {
			r = ofp.ReasonTTLExpired
		}
		a.notify(&ofp.PacketIn{
			SwitchID: uint32(a.id),
			Flow:     key.Flow,
			Tag:      uint16(key.Tag),
			Reason:   r,
		})
	})
	return a
}

// SetNotify installs the asynchronous switch-to-controller channel used for
// PacketIn notifications (nil disables them).
func (a *Agent) SetNotify(send func(ofp.Msg)) { a.notify = send }

// ID returns the switch's node ID.
func (a *Agent) ID() graph.NodeID { return a.id }

// PendingTimed returns how many timed FlowMods are scheduled but not yet
// applied.
func (a *Agent) PendingTimed() int { return a.scheduled - a.applied }

// Handle processes one control message and returns the replies to send.
// It must run inside a simulation event.
func (a *Agent) Handle(m ofp.Msg) []ofp.Msg {
	switch req := m.(type) {
	case *ofp.Hello:
		return []ofp.Msg{&ofp.Hello{XID: req.XID}}
	case *ofp.EchoRequest:
		return []ofp.Msg{&ofp.EchoReply{XID: req.XID, Payload: req.Payload}}
	case *ofp.FeaturesRequest:
		return []ofp.Msg{&ofp.FeaturesReply{
			XID:          req.XID,
			DatapathID:   uint64(a.id) + 1,
			Name:         a.sw.Name(),
			TimedUpdates: true,
		}}
	case *ofp.FlowMod:
		if err := a.flowMod(req); err != nil {
			return []ofp.Msg{&ofp.ErrorMsg{XID: req.XID, Code: ofp.ErrCodeBadFlowMod, Message: err.Error()}}
		}
		return nil
	case *ofp.BarrierRequest:
		// Timed FlowMods count as processed once scheduled: the barrier
		// confirms receipt and scheduling, per the Time4 model.
		a.met.barriers.Inc()
		if a.trace != nil {
			now := int64(a.net.K.Now())
			a.trace.Point(now, obs.EvSwBarrier, obs.A(obs.KeySwitch, a.sw.Name()))
			// Parentless on purpose: the xid links it under the
			// controller's ctl.send span when the forest is built.
			a.trace.EmitSpan(obs.EvSwBarrier, 0, now, now,
				obs.A(obs.KeySwitch, a.sw.Name()), obs.A(obs.KeyXid, req.XID))
		}
		return []ofp.Msg{&ofp.BarrierReply{XID: req.XID}}
	case *ofp.StatsRequest:
		a.met.statsReqs.Inc()
		return []ofp.Msg{a.stats(req)}
	default:
		return []ofp.Msg{&ofp.ErrorMsg{XID: m.Xid(), Code: ofp.ErrCodeBadRequest, Message: fmt.Sprintf("unexpected %v", m.Type())}}
	}
}

func (a *Agent) flowMod(m *ofp.FlowMod) error {
	var action emu.Action
	if m.Command != ofp.FlowDelete {
		switch m.Action {
		case ofp.ActionToHost:
			action = emu.Action{ToHost: true}
		case ofp.ActionOutput:
			nh := graph.NodeID(m.NextHop)
			if _, ok := a.net.G.Link(a.id, nh); !ok {
				return fmt.Errorf("switch %s has no port toward node %d", a.sw.Name(), nh)
			}
			action = emu.Action{NextHop: nh}
		default:
			return fmt.Errorf("unknown action %d", m.Action)
		}
	}
	key := emu.FlowKey{Flow: m.Flow, Tag: emu.Tag(m.Tag)}

	// Rule-content attributes carried by sw.flowmod and sw.apply events:
	// enough for a trace consumer to rebuild the forwarding table without
	// access to the live switch (the audit package's state reconstruction).
	cmd := "mod"
	next := "-"
	switch m.Command {
	case ofp.FlowAdd:
		cmd = "add"
	case ofp.FlowDelete:
		cmd = "del"
	}
	if m.Command != ofp.FlowDelete {
		if action.ToHost {
			next = "host"
		} else {
			next = a.net.G.Name(action.NextHop)
		}
	}

	apply := func() {
		a.applied++
		switch m.Command {
		case ofp.FlowAdd, ofp.FlowModify:
			a.sw.InstallRule(key, action)
		case ofp.FlowDelete:
			a.sw.RemoveRule(key)
		}
	}
	if m.ExecuteAt == 0 {
		a.met.immediate.Inc()
		if a.trace != nil {
			now := int64(a.net.K.Now())
			a.trace.Point(now, obs.EvSwFlowMod,
				obs.A(obs.KeySwitch, a.sw.Name()), obs.A(obs.KeyKind, "immediate"),
				obs.A(obs.KeyKey, key.String()), obs.A(obs.KeyCmd, cmd), obs.A(obs.KeyNext, next))
			a.trace.EmitSpan("sw.recv", 0, now, now,
				obs.A(obs.KeySwitch, a.sw.Name()), obs.A(obs.KeyXid, m.XID),
				obs.A(obs.KeyKind, "immediate"), obs.A(obs.KeyKey, key.String()))
		}
		a.scheduled++
		apply()
		return nil
	}
	requested := sim.Time(m.ExecuteAt)
	at := requested
	if a.clock != nil {
		at = a.clock.ApplyTick(a.id, at)
	}
	now := a.net.K.Now()
	if at < now {
		// The scheduled instant has already passed on the local clock
		// (e.g. control latency exceeded the lead time): apply now, late.
		at = now
	}
	a.met.timed.Inc()
	// The recv span covers the whole switch-side residency of a timed
	// FlowMod — arrival through scheduled application — and is left
	// parentless so the xid folds it under the controller's send span.
	recvSpan := a.trace.StartSpan(int64(now), "sw.recv",
		0, obs.A(obs.KeySwitch, a.sw.Name()), obs.A(obs.KeyXid, m.XID),
		obs.A(obs.KeyKind, "timed"), obs.A(obs.KeyAt, int64(requested)), obs.A(obs.KeyKey, key.String()))
	if a.trace != nil {
		a.trace.Point(int64(now), obs.EvSwFlowMod,
			obs.A(obs.KeySwitch, a.sw.Name()), obs.A(obs.KeyKind, "timed"), obs.A(obs.KeyAt, int64(requested)),
			obs.A(obs.KeyKey, key.String()), obs.A(obs.KeyCmd, cmd), obs.A(obs.KeyNext, next))
	}
	a.scheduled++
	a.net.K.At(at, func() {
		// Fire skew is measured against the controller's requested tick, so
		// it folds in both the local clock offset and any lateness clamp.
		skew := int64(a.net.K.Now()) - int64(requested)
		abs := skew
		if abs < 0 {
			abs = -abs
		}
		a.met.fireSkew.Observe(float64(abs))
		switch {
		case skew < 0:
			a.met.skewEarly.Inc()
		case skew > 0:
			a.met.skewLate.Inc()
		default:
			a.met.skewOnTime.Inc()
		}
		if a.trace != nil {
			fire := int64(a.net.K.Now())
			a.trace.Point(fire, obs.EvSwApply,
				obs.A(obs.KeySwitch, a.sw.Name()), obs.A(obs.KeySkew, skew),
				obs.A(obs.KeyAt, int64(requested)),
				obs.A(obs.KeyKey, key.String()), obs.A(obs.KeyCmd, cmd), obs.A(obs.KeyNext, next))
			a.trace.EmitSpan(obs.EvSwApply, recvSpan.SpanID(), fire, fire,
				obs.A(obs.KeySwitch, a.sw.Name()), obs.A(obs.KeyXid, m.XID), obs.A(obs.KeySkew, skew))
			recvSpan.End(fire)
		}
		apply()
	})
	return nil
}

func (a *Agent) stats(req *ofp.StatsRequest) ofp.Msg {
	reply := &ofp.StatsReply{XID: req.XID, Kind: req.Kind}
	switch req.Kind {
	case ofp.StatsPorts:
		for _, l := range a.net.Links() {
			if l.From() != a.id {
				continue
			}
			reply.Ports = append(reply.Ports, ofp.PortStat{
				PeerID: uint32(l.To()),
				Bytes:  uint64(l.Bytes()),
			})
		}
	case ofp.StatsFlows:
		for _, r := range a.sw.DumpRules() {
			reply.Flows = append(reply.Flows, ofp.FlowStat{
				Flow:  r.Key.Flow,
				Tag:   uint16(r.Key.Tag),
				Bytes: uint64(r.Bytes),
			})
		}
	}
	return reply
}

// Serve reads messages from conn until EOF, executing each through do
// (which must serialize into the simulation loop) and writing the replies
// back. Replies are queued and flushed once every message already read
// has been answered, so a burst from the controller (FlowMods plus their
// barrier) is answered in one write. It is the TCP-transport entry point
// used by cmd/chronusd.
func Serve(conn *ofp.Conn, a *Agent, do func(func())) error {
	for {
		m, err := conn.Recv()
		if err != nil {
			return err
		}
		var replies []ofp.Msg
		do(func() { replies = a.Handle(m) })
		for _, r := range replies {
			conn.Queue(r)
		}
		if conn.Buffered() == 0 {
			if err := conn.Flush(); err != nil {
				return err
			}
		}
	}
}
