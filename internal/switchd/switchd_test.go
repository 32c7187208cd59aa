package switchd

import (
	"net"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/chronus-sdn/chronus/internal/emu"
	"github.com/chronus-sdn/chronus/internal/ofp"
	"github.com/chronus-sdn/chronus/internal/sim"
	"github.com/chronus-sdn/chronus/internal/timesync"
	"github.com/chronus-sdn/chronus/internal/topo"
)

func newAgent(t *testing.T, clock *timesync.Ensemble) (*Agent, *emu.Network, *sim.Kernel) {
	t.Helper()
	g, ids := topo.Line(3, 100, 5)
	k := sim.NewKernel()
	n := emu.New(g, k)
	return New(n, ids[1], clock), n, k
}

func TestHandshakeMessages(t *testing.T) {
	a, _, _ := newAgent(t, nil)
	if r := a.Handle(&ofp.Hello{XID: 1}); len(r) != 1 || r[0].Type() != ofp.TypeHello {
		t.Fatalf("hello reply = %+v", r)
	}
	r := a.Handle(&ofp.EchoRequest{XID: 2, Payload: "x"})
	if e, ok := r[0].(*ofp.EchoReply); !ok || e.Payload != "x" || e.XID != 2 {
		t.Fatalf("echo reply = %+v", r[0])
	}
	r = a.Handle(&ofp.FeaturesRequest{XID: 3})
	f, ok := r[0].(*ofp.FeaturesReply)
	if !ok || !f.TimedUpdates || f.Name != "v2" {
		t.Fatalf("features reply = %+v", r[0])
	}
	r = a.Handle(&ofp.BarrierRequest{XID: 4})
	if _, ok := r[0].(*ofp.BarrierReply); !ok {
		t.Fatalf("barrier reply = %+v", r[0])
	}
	// Unexpected message type yields an error reply.
	r = a.Handle(&ofp.BarrierReply{XID: 5})
	if e, ok := r[0].(*ofp.ErrorMsg); !ok || e.Code != ofp.ErrCodeBadRequest {
		t.Fatalf("reply = %+v", r[0])
	}
}

func TestImmediateFlowMod(t *testing.T) {
	a, n, k := newAgent(t, nil)
	g := n.G
	r := a.Handle(&ofp.FlowMod{
		XID: 1, Command: ofp.FlowAdd, Flow: "f", Tag: 0,
		Action: ofp.ActionOutput, NextHop: int32(g.Lookup("v3")),
	})
	if len(r) != 0 {
		t.Fatalf("flowmod replied %+v", r)
	}
	if len(n.Switch(g.Lookup("v2")).DumpRules()) != 1 {
		t.Fatal("rule not installed")
	}
	// Delete with no action payload.
	if r := a.Handle(&ofp.FlowMod{XID: 2, Command: ofp.FlowDelete, Flow: "f"}); len(r) != 0 {
		t.Fatalf("delete replied %+v", r)
	}
	if len(n.Switch(g.Lookup("v2")).DumpRules()) != 0 {
		t.Fatal("rule not deleted")
	}
	_ = k
}

func TestFlowModValidation(t *testing.T) {
	a, _, _ := newAgent(t, nil)
	r := a.Handle(&ofp.FlowMod{XID: 1, Command: ofp.FlowAdd, Flow: "f", Action: ofp.ActionOutput, NextHop: 99})
	e, ok := r[0].(*ofp.ErrorMsg)
	if !ok || e.Code != ofp.ErrCodeBadFlowMod || !strings.Contains(e.Message, "no port") {
		t.Fatalf("reply = %+v", r[0])
	}
	r = a.Handle(&ofp.FlowMod{XID: 2, Command: ofp.FlowAdd, Flow: "f", Action: ofp.ActionKind(77)})
	if _, ok := r[0].(*ofp.ErrorMsg); !ok {
		t.Fatalf("unknown action accepted: %+v", r[0])
	}
}

func TestTimedFlowModAppliesAtLocalTime(t *testing.T) {
	a, n, k := newAgent(t, nil)
	g := n.G
	k.At(0, func() {
		a.Handle(&ofp.FlowMod{
			XID: 1, Command: ofp.FlowAdd, Flow: "f",
			Action: ofp.ActionOutput, NextHop: int32(g.Lookup("v3")),
			ExecuteAt: 50,
		})
	})
	k.RunUntil(10)
	if len(n.Switch(g.Lookup("v2")).DumpRules()) != 0 {
		t.Fatal("timed rule applied early")
	}
	k.RunUntil(50)
	if len(n.Switch(g.Lookup("v2")).DumpRules()) != 1 {
		t.Fatal("timed rule not applied at its instant")
	}
}

func TestTimedFlowModWithClockOffset(t *testing.T) {
	g, ids := topo.Line(3, 100, 5)
	k := sim.NewKernel()
	n := emu.New(g, k)
	ens := timesync.New(timesync.Params{
		Seed:           1,
		SyncIntervalNs: 1_000_000_000_000, // one epoch over the test window
		SyncErrorNs:    10 * timesync.TickNs,
	}, g.Nodes())
	a := New(n, ids[1], ens)
	const sched = 100
	want := ens.ApplyTick(ids[1], sched)
	k.At(0, func() {
		a.Handle(&ofp.FlowMod{
			XID: 1, Command: ofp.FlowAdd, Flow: "f",
			Action: ofp.ActionOutput, NextHop: int32(ids[2]),
			ExecuteAt: sched,
		})
	})
	if want != sched {
		// The ensemble moved the instant; confirm the rule is absent just
		// before and present at the shifted tick.
		k.RunUntil(minTime(want, sched) - 1)
		if len(n.Switch(ids[1]).DumpRules()) != 0 {
			t.Fatal("applied before both instants")
		}
	}
	k.RunUntil(maxTime(want, sched) + 1)
	if len(n.Switch(ids[1]).DumpRules()) != 1 {
		t.Fatal("rule never applied")
	}
}

func minTime(a, b sim.Time) sim.Time {
	if a < b {
		return a
	}
	return b
}

func maxTime(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}

func TestLateTimedFlowModAppliesNow(t *testing.T) {
	a, n, k := newAgent(t, nil)
	g := n.G
	k.At(100, func() {
		a.Handle(&ofp.FlowMod{
			XID: 1, Command: ofp.FlowAdd, Flow: "f",
			Action: ofp.ActionOutput, NextHop: int32(g.Lookup("v3")),
			ExecuteAt: 50, // already in the past
		})
	})
	k.RunUntil(101)
	if len(n.Switch(g.Lookup("v2")).DumpRules()) != 1 {
		t.Fatal("late timed rule not applied immediately")
	}
}

func TestStatsReplies(t *testing.T) {
	a, n, k := newAgent(t, nil)
	g := n.G
	key := emu.FlowKey{Flow: "f", Tag: 0}
	k.At(0, func() {
		n.Switch(g.Lookup("v1")).InstallRule(key, emu.Action{NextHop: g.Lookup("v2")})
		n.Switch(g.Lookup("v2")).InstallRule(key, emu.Action{NextHop: g.Lookup("v3")})
		n.Switch(g.Lookup("v3")).InstallRule(key, emu.Action{ToHost: true})
		n.Inject(g.Lookup("v1"), key, 10)
	})
	k.RunUntil(100)
	r := a.Handle(&ofp.StatsRequest{XID: 1, Kind: ofp.StatsPorts})
	reply := r[0].(*ofp.StatsReply)
	if reply.At != 100 {
		t.Fatalf("counters read at %d, want the agent's now, 100", reply.At)
	}
	if len(reply.Ports) != 1 || reply.Ports[0].PeerID != uint32(g.Lookup("v3")) {
		t.Fatalf("ports = %+v", reply.Ports)
	}
	if reply.Ports[0].Bytes == 0 {
		t.Fatal("port counter empty after traffic")
	}
	r = a.Handle(&ofp.StatsRequest{XID: 2, Kind: ofp.StatsFlows})
	reply = r[0].(*ofp.StatsReply)
	if len(reply.Flows) != 1 || reply.Flows[0].Flow != "f" || reply.Flows[0].Bytes == 0 {
		t.Fatalf("flows = %+v", reply.Flows)
	}
}

// writeCounter counts the writes made on a transport.
type writeCounter struct {
	net.Conn
	writes atomic.Int32
}

func (c *writeCounter) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestServeAnswersABurstInOneWrite: Serve queues its replies and flushes
// once every message already read is answered, so a burst that arrives in
// one write is answered, in order, in one write.
func TestServeAnswersABurstInOneWrite(t *testing.T) {
	a, _, _ := newAgent(t, nil)
	cli, srv := net.Pipe()
	defer cli.Close()
	sw := &writeCounter{Conn: srv}
	served := make(chan error, 1)
	go func() { served <- Serve(ofp.NewConn(sw), a, func(f func()) { f() }) }()

	ctl := ofp.NewConn(cli)
	ctl.Queue(&ofp.EchoRequest{XID: 1, Payload: "a"})
	ctl.Queue(&ofp.FeaturesRequest{XID: 2})
	ctl.Queue(&ofp.BarrierRequest{XID: 3})
	if err := ctl.Flush(); err != nil {
		t.Fatal(err)
	}
	for xid := uint32(1); xid <= 3; xid++ {
		m, err := ctl.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Xid() != xid {
			t.Fatalf("reply %d has xid %d: replies out of order", xid, m.Xid())
		}
	}
	if n := sw.writes.Load(); n != 1 {
		t.Fatalf("three replies in %d writes, want 1", n)
	}
	cli.Close()
	if err := <-served; err == nil {
		t.Fatal("Serve returned nil after the peer closed")
	}
}
