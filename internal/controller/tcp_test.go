package controller

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/graph"
	"github.com/chronus-sdn/chronus/internal/ofp"
	"github.com/chronus-sdn/chronus/internal/switchd"
	"github.com/chronus-sdn/chronus/internal/topo"
)

// TestEndToEndOverTCP runs the full control path over real TCP sockets:
// every switch agent listens on its own socket, the controller dials each,
// performs the hello/features handshake, provisions the flow, executes the
// paper's timed schedule, and verifies the emulated data plane migrated
// cleanly.
func TestEndToEndOverTCP(t *testing.T) {
	in := topo.Fig1Example()
	h := NewHarness(in.G)
	c := New(h, Options{Seed: 1})

	// One listener per switch; agents funnel into the shared harness.
	listeners := make(map[graph.NodeID]net.Listener)
	for _, id := range in.G.Nodes() {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[id] = ln
		agent := switchd.New(h.Net, id, nil)
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			oc := ofp.NewConn(conn)
			defer oc.Close()
			// Handshake: hello + features handled by Serve via Handle.
			_ = switchd.Serve(oc, agent, h.Do)
		}()
	}
	t.Cleanup(func() {
		for _, ln := range listeners {
			ln.Close()
		}
	})

	for id, ln := range listeners {
		conn, err := ofp.Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		name, err := c.AttachTCP(id, conn)
		if err != nil {
			t.Fatalf("AttachTCP(%d): %v", id, err)
		}
		if name != in.G.Name(id) {
			t.Fatalf("switch announced %q, want %q", name, in.G.Name(id))
		}
	}

	f := FlowSpec{Name: "f0", Tag: 0, Path: in.Init, Rate: 1}
	if err := c.Provision(f); err != nil {
		t.Fatalf("Provision over TCP: %v", err)
	}
	h.AdvanceTo(100)

	s := dynflow.NewSchedule(150)
	for v, tv := range topo.PaperSchedule(in).Times {
		s.Set(v, 150+tv)
	}
	if err := c.ExecuteTimed(in, s, f); err != nil {
		t.Fatalf("ExecuteTimed over TCP: %v", err)
	}
	h.AdvanceTo(300)

	noOverloads(t, h)
	if drops := totalDrops(h); drops != 0 {
		t.Fatalf("drops = %f", drops)
	}
	if l := h.Net.Link(in.G.Lookup("v1"), in.G.Lookup("v5")); l.Rate() != 1 {
		t.Fatalf("final path not active over TCP path: rate = %d", l.Rate())
	}

	// Stats over TCP too.
	samples, err := c.SampleLink(in.G.Lookup("v1"), in.G.Lookup("v5"), 50, 3)
	if err != nil {
		t.Fatalf("SampleLink over TCP: %v", err)
	}
	for _, smp := range samples {
		if smp.Rate < 0.5 || smp.Rate > 1.5 {
			t.Fatalf("sample = %+v, want ~1", smp)
		}
	}
}

// fakePeer runs a scripted switch end of the handshake on the far side of
// a net.Pipe and returns the controller-side ofp.Conn.
func fakePeer(t *testing.T, script func(pc *ofp.Conn)) *ofp.Conn {
	t.Helper()
	cli, srv := net.Pipe()
	t.Cleanup(func() { cli.Close(); srv.Close() })
	pc := ofp.NewConn(srv)
	go script(pc)
	return ofp.NewConn(cli)
}

func newTCPTestController(t *testing.T) (*Controller, graph.NodeID) {
	t.Helper()
	in := topo.Fig1Example()
	h := NewHarness(in.G)
	return New(h, Options{Seed: 1}), in.G.Nodes()[0]
}

// A switch that does not advertise the Time4 timed-update capability
// would silently miss every scheduled FlowMod; AttachTCP must refuse it.
func TestAttachTCPRejectsUntimedSwitch(t *testing.T) {
	c, id := newTCPTestController(t)
	conn := fakePeer(t, func(pc *ofp.Conn) {
		m, _ := pc.Recv()
		pc.Send(&ofp.Hello{XID: m.Xid()})
		m, _ = pc.Recv()
		pc.Send(&ofp.FeaturesReply{XID: m.Xid(), Name: "legacy", TimedUpdates: false})
	})
	_, err := c.AttachTCP(id, conn)
	if !errors.Is(err, ErrTimedUpdatesUnsupported) {
		t.Fatalf("err = %v, want ErrTimedUpdatesUnsupported", err)
	}
	if err := c.Barrier(id); !errors.Is(err, ErrNoSession) {
		t.Fatalf("rejected switch was attached anyway: Barrier err = %v", err)
	}
}

// The first reply of the handshake must be the peer's Hello; anything else
// (here an EchoReply) fails the attach instead of being swallowed.
func TestAttachTCPRejectsNonHello(t *testing.T) {
	c, id := newTCPTestController(t)
	conn := fakePeer(t, func(pc *ofp.Conn) {
		m, _ := pc.Recv()
		pc.Send(&ofp.EchoReply{XID: m.Xid(), Payload: "not a hello"})
	})
	_, err := c.AttachTCP(id, conn)
	if !errors.Is(err, ErrHandshake) {
		t.Fatalf("err = %v, want ErrHandshake", err)
	}
	if err := c.Barrier(id); !errors.Is(err, ErrNoSession) {
		t.Fatalf("switch attached after broken handshake: Barrier err = %v", err)
	}
}

// When the transport dies after a successful attach, the reply reader must
// detach the session (so executors fail fast with ErrNoSession) and
// surface the disconnect through the counter and callback.
func TestAttachTCPDetachesOnDisconnect(t *testing.T) {
	in := topo.Fig1Example()
	h := NewHarness(in.G)
	gone := make(chan graph.NodeID, 1)
	c := New(h, Options{Seed: 1, OnDisconnect: func(id graph.NodeID, err error) {
		gone <- id
	}})
	id := in.G.Nodes()[0]

	cli, srv := net.Pipe()
	t.Cleanup(func() { cli.Close(); srv.Close() })
	pc := ofp.NewConn(srv)
	go func() {
		m, _ := pc.Recv()
		pc.Send(&ofp.Hello{XID: m.Xid()})
		m, _ = pc.Recv()
		pc.Send(&ofp.FeaturesReply{XID: m.Xid(), Name: "s1", TimedUpdates: true})
	}()
	name, err := c.AttachTCP(id, ofp.NewConn(cli))
	if err != nil {
		t.Fatal(err)
	}
	if name != "s1" {
		t.Fatalf("name = %q", name)
	}
	if c.Disconnects() != 0 {
		t.Fatalf("disconnects = %d before any disconnect", c.Disconnects())
	}

	srv.Close() // switch dies

	select {
	case got := <-gone:
		if got != id {
			t.Fatalf("OnDisconnect(%d), want %d", got, id)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("OnDisconnect never fired")
	}
	if c.Disconnects() != 1 {
		t.Fatalf("disconnects = %d, want 1", c.Disconnects())
	}
	// The dead session is gone: executors get ErrNoSession immediately
	// instead of barriering forever against the vanished switch.
	if err := c.Barrier(id); !errors.Is(err, ErrNoSession) {
		t.Fatalf("Barrier after disconnect: err = %v, want ErrNoSession", err)
	}
}

// A reconnect that replaces the dead session must survive the old reader's
// late exit: sessionClosed only detaches the session it belonged to.
func TestSessionClosedKeepsReplacement(t *testing.T) {
	c, id := newTCPTestController(t)
	old := &tcpSession{}
	c.AttachSession(id, old)
	replacement := &tcpSession{}
	c.AttachSession(id, replacement)
	c.sessionClosed(id, old, errors.New("late reader exit"))
	if c.Disconnects() != 0 {
		t.Fatalf("stale reader counted a disconnect: %d", c.Disconnects())
	}
	if s, err := c.session(id); err != nil || s != Session(replacement) {
		t.Fatalf("replacement session lost: %v, %v", s, err)
	}
	// The replacement's own death still counts.
	c.sessionClosed(id, replacement, errors.New("real exit"))
	if c.Disconnects() != 1 {
		t.Fatalf("disconnects = %d, want 1", c.Disconnects())
	}
	if _, err := c.session(id); !errors.Is(err, ErrNoSession) {
		t.Fatalf("dead session still registered: %v", err)
	}
}

// A dropped control channel must not strand the update: after the
// disconnect surfaces (counter + callback), re-dialing and re-attaching
// the same switch yields a session over which timed FlowMods execute the
// schedule as if the drop never happened.
func TestReconnectResumesTimedUpdates(t *testing.T) {
	in := topo.Fig1Example()
	h := NewHarness(in.G)
	gone := make(chan graph.NodeID, 4)
	c := New(h, Options{Seed: 1, OnDisconnect: func(id graph.NodeID, err error) {
		gone <- id
	}})

	// One listener per switch, each accepting any number of consecutive
	// connections so a reconnect reaches the same agent.
	listeners := make(map[graph.NodeID]net.Listener)
	for _, id := range in.G.Nodes() {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[id] = ln
		agent := switchd.New(h.Net, id, nil)
		go func() {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				go func() {
					oc := ofp.NewConn(conn)
					defer oc.Close()
					_ = switchd.Serve(oc, agent, h.Do)
				}()
			}
		}()
	}
	t.Cleanup(func() {
		for _, ln := range listeners {
			ln.Close()
		}
	})

	dial := func(id graph.NodeID) *ofp.Conn {
		t.Helper()
		conn, err := ofp.Dial(listeners[id].Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return conn
	}
	conns := make(map[graph.NodeID]*ofp.Conn)
	for id := range listeners {
		conns[id] = dial(id)
		if _, err := c.AttachTCP(id, conns[id]); err != nil {
			t.Fatalf("AttachTCP(%d): %v", id, err)
		}
	}

	f := FlowSpec{Name: "f0", Tag: 0, Path: in.Init, Rate: 1}
	if err := c.Provision(f); err != nil {
		t.Fatal(err)
	}
	h.AdvanceTo(100)

	// Kill one switch's control channel mid-flight.
	victim := in.G.Lookup("v3")
	conns[victim].Close()
	select {
	case got := <-gone:
		if got != victim {
			t.Fatalf("OnDisconnect(%d), want %d", got, victim)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("OnDisconnect never fired")
	}
	if c.Disconnects() != 1 {
		t.Fatalf("disconnects = %d, want 1", c.Disconnects())
	}
	if err := c.Barrier(victim); !errors.Is(err, ErrNoSession) {
		t.Fatalf("Barrier on dead session: err = %v, want ErrNoSession", err)
	}

	// Reconnect: fresh socket, same switch, full handshake again.
	name, err := c.AttachTCP(victim, dial(victim))
	if err != nil {
		t.Fatalf("re-AttachTCP: %v", err)
	}
	if name != in.G.Name(victim) {
		t.Fatalf("reattached switch announced %q, want %q", name, in.G.Name(victim))
	}
	if err := c.Barrier(victim); err != nil {
		t.Fatalf("Barrier after reconnect: %v", err)
	}

	// The timed schedule must now execute cleanly across all switches,
	// including the reattached one.
	s := dynflow.NewSchedule(150)
	for v, tv := range topo.PaperSchedule(in).Times {
		s.Set(v, 150+tv)
	}
	if err := c.ExecuteTimed(in, s, f); err != nil {
		t.Fatalf("ExecuteTimed after reconnect: %v", err)
	}
	h.AdvanceTo(300)

	noOverloads(t, h)
	if drops := totalDrops(h); drops != 0 {
		t.Fatalf("drops = %f after reconnect", drops)
	}
	if l := h.Net.Link(in.G.Lookup("v1"), in.G.Lookup("v5")); l.Rate() != 1 {
		t.Fatalf("final path not active after reconnect: rate = %d", l.Rate())
	}
	if c.Disconnects() != 1 {
		t.Fatalf("reconnect added spurious disconnects: %d", c.Disconnects())
	}
}

// writeFailConn is a transport whose writes start failing on demand
// while reads go on, so the failure lands at the controller's flush.
type writeFailConn struct {
	net.Conn
	fail atomic.Bool
}

var errInjectedWrite = errors.New("injected write failure")

func (c *writeFailConn) Write(p []byte) (int, error) {
	if c.fail.Load() {
		return 0, errInjectedWrite
	}
	return c.Conn.Write(p)
}

// attachScripted attaches id over a net.Pipe whose switch end answers the
// handshake and then reports every message it receives on got.
func attachScripted(t *testing.T, c *Controller, id graph.NodeID) (*writeFailConn, net.Conn, <-chan ofp.Msg) {
	t.Helper()
	cli, srv := net.Pipe()
	t.Cleanup(func() { cli.Close(); srv.Close() })
	got := make(chan ofp.Msg, 16)
	go func() {
		pc := ofp.NewConn(srv)
		m, _ := pc.Recv()
		pc.Send(&ofp.Hello{XID: m.Xid()})
		m, _ = pc.Recv()
		pc.Send(&ofp.FeaturesReply{XID: m.Xid(), Name: "s1", TimedUpdates: true})
		for {
			m, err := pc.Recv()
			if err != nil {
				return
			}
			got <- m
		}
	}()
	fc := &writeFailConn{Conn: cli}
	if _, err := c.AttachTCP(id, ofp.NewConn(fc)); err != nil {
		t.Fatal(err)
	}
	return fc, srv, got
}

// A TCP session's Send only queues; the write happens when the
// controller flushes before it waits. A write that fails there must fail
// the Barrier and the executor around it with that error, and the
// session must still detach through Disconnects once the switch is gone.
func TestFlushFailureFailsBarrierAndExecutor(t *testing.T) {
	c, id := newTCPTestController(t)
	fc, srv, _ := attachScripted(t, c, id)
	fc.fail.Store(true)

	if err := c.Barrier(id); !errors.Is(err, errInjectedWrite) {
		t.Fatalf("Barrier with a failing write: err = %v, want the write error", err)
	}
	if err := c.ProbeClocks("probe", 100, id); !errors.Is(err, errInjectedWrite) {
		t.Fatalf("executor with a failing write: err = %v, want the write error", err)
	}

	srv.Close() // the switch is gone
	deadline := time.Now().Add(5 * time.Second)
	for c.Disconnects() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("disconnects = %d, want 1", c.Disconnects())
		}
		time.Sleep(time.Millisecond)
	}
	if err := c.Barrier(id); !errors.Is(err, ErrNoSession) {
		t.Fatalf("Barrier after the detach: err = %v, want ErrNoSession", err)
	}
}

// FlowMods queued before an executor fails mid-schedule still go out:
// the executor flushes on its way out, as per-message sends did.
func TestExecutorFlushesQueuedOnError(t *testing.T) {
	c, id := newTCPTestController(t)
	_, _, got := attachScripted(t, c, id)
	missing := id + 1 // never attached
	if err := c.ProbeClocks("probe", 100, id, missing); !errors.Is(err, ErrNoSession) {
		t.Fatalf("err = %v, want ErrNoSession", err)
	}
	select {
	case m := <-got:
		if fm, ok := m.(*ofp.FlowMod); !ok || fm.Flow != "probe" {
			t.Fatalf("switch received %v, want the probe FlowMod", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the FlowMod queued before the error never reached the switch")
	}
}
