package obs_test

import (
	"net"
	"sort"
	"testing"
	"time"

	"github.com/chronus-sdn/chronus/internal/baseline"
	"github.com/chronus-sdn/chronus/internal/controller"
	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/emu"
	"github.com/chronus-sdn/chronus/internal/graph"
	"github.com/chronus-sdn/chronus/internal/obs"
	"github.com/chronus-sdn/chronus/internal/ofp"
	"github.com/chronus-sdn/chronus/internal/scheme"
	"github.com/chronus-sdn/chronus/internal/sim"
	"github.com/chronus-sdn/chronus/internal/state"
	"github.com/chronus-sdn/chronus/internal/topo"
)

// contract is the table of contract.go as data: for every family a
// consumer switches on, the attributes every event of it must carry
// (optional ones, bracketed in the table, are left out).
var contract = map[string][]string{
	obs.EvCtlFlowMod:    {obs.KeySwitch, obs.KeyAt, obs.KeyKey, obs.KeyNext},
	obs.EvCtlDisconnect: {obs.KeySwitch, "err"},
	obs.EvSwFlowMod:     {obs.KeySwitch, obs.KeyKind, obs.KeyKey, obs.KeyCmd, obs.KeyNext},
	obs.EvSwApply:       {obs.KeySwitch, obs.KeySkew, obs.KeyAt, obs.KeyKey, obs.KeyCmd, obs.KeyNext},
	obs.EvSwBarrier:     {obs.KeySwitch},
	obs.EvEmuInject:     {obs.KeySwitch, obs.KeyKey, obs.KeyRate},
	obs.EvEmuRate:       {obs.KeyLink, obs.KeyKey, obs.KeyRate, obs.KeyTotal, obs.KeyCap, obs.KeyDelay},
	obs.EvEmuOverload:   {obs.KeyLink, obs.KeyPeak, obs.KeyCap},
	obs.EvEmuDrop:       {obs.KeySwitch, obs.KeyKey, obs.KeyReason},
	obs.EvStateIntent: {obs.KeyID, obs.KeyTenant, obs.KeyFlow, obs.KeyKey, obs.KeyKind,
		obs.KeyMethod, obs.KeySlack, obs.KeySwitches},

	"span:" + obs.OpSolve:      {"scheme"},
	"span:" + obs.OpCtlSend:    {obs.KeySwitch, obs.KeyXid, obs.KeyKind},
	"span:" + obs.OpCtlBarrier: {obs.KeySwitches},
	"span:" + obs.EvSwBarrier:  {obs.KeySwitch, obs.KeyXid},
	"span:" + obs.EvSwApply:    {obs.KeySwitch, obs.KeyXid, obs.KeySkew},
}

// TestEventContract executes the Fig. 1 update every way the daemon can
// — time-triggered, barrier-paced rounds, two-phase — plus the faults a
// clean update never shows (an overloaded link, a blackhole, a dying
// control session), on in-process virtual sessions, and holds the stream
// to the contract table: every family is emitted at least once and every
// event of it carries the listed attributes. The one family missing here
// is sched, which only `mutp -trace` emits (TestCLITraceDeterministic
// looks for it in every switch lane).
func TestEventContract(t *testing.T) {
	in := topo.Fig1Example()
	var events []obs.Event

	// execute runs one update of a freshly provisioned Fig. 1 flow and
	// collects what it traced.
	execute := func(name string, run func(tr *obs.Tracer, c *controller.Controller, h *controller.Harness, f controller.FlowSpec) error) {
		t.Helper()
		tr := obs.NewTracer(obs.TracerOptions{})
		h := controller.NewHarness(in.G)
		h.Net.SetObs(nil, tr)
		c := controller.New(h, controller.Options{Seed: 1, Trace: tr})
		c.AttachAll(nil)
		f := controller.FlowSpec{Name: "f", Tag: 0, Path: in.Init, Rate: emu.Rate(in.Demand)}
		if err := c.Provision(f); err != nil {
			t.Fatalf("%s: provision: %v", name, err)
		}
		h.AdvanceBy(50)
		if err := run(tr, c, h, f); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h.AdvanceBy(sim.Time(4 * (in.Init.Delay(in.G) + in.Fin.Delay(in.G))))
		events = append(events, tr.Events(0)...)
	}

	execute("timed", func(tr *obs.Tracer, c *controller.Controller, h *controller.Harness, f controller.FlowSpec) error {
		now := int64(h.Now())
		res, err := scheme.Solve("chronus", in, scheme.Options{Trace: tr, VT: now})
		if err != nil {
			return err
		}
		sched := res.Schedule.Shifted(dynflow.Tick(now) + 50)
		state.Intent{ID: 1, Tenant: "t", Flow: f.Name, Key: "f/0", Kind: "execute", Method: "chronus",
			Switches: state.Promises(in.G, in.Fin, sched, -1)}.Emit(tr, now)
		return c.ExecuteTimed(in, sched, f)
	})
	execute("rounds", func(tr *obs.Tracer, c *controller.Controller, h *controller.Harness, f controller.FlowSpec) error {
		res, err := scheme.Solve("or", in, scheme.Options{})
		if err != nil {
			return err
		}
		s := baseline.ORSchedule(res.Rounds, baseline.ORScheduleOptions{RoundWidth: 1})
		return c.ExecuteBarrierPaced(in, s, f, 1)
	})
	execute("twophase", func(tr *obs.Tracer, c *controller.Controller, h *controller.Harness, f controller.FlowSpec) error {
		return c.ExecuteTwoPhase(in, f, 1)
	})
	execute("faults", func(tr *obs.Tracer, c *controller.Controller, h *controller.Harness, f controller.FlowSpec) error {
		// A second flow of the same demand overloads every tight link of
		// the path until it stops; deleting a mid-path rule blackholes.
		g := controller.FlowSpec{Name: "g", Tag: 0, Path: in.Init, Rate: f.Rate}
		if err := c.Provision(g); err != nil {
			return err
		}
		h.AdvanceBy(20)
		c.StopFlow(g)
		return c.DeleteFlow(f.Name, in.Init[1])
	})
	events = append(events, disconnectEvents(t, in.G)...)

	seen := map[string]int{}
	for _, e := range events {
		family := e.Name
		if e.Name == obs.SpanEventName {
			family = "span:" + e.Attr(obs.KeyOp)
		}
		want, ok := contract[family]
		if !ok {
			continue
		}
		seen[family]++
		have := map[string]bool{}
		for _, a := range e.Attrs {
			have[a.K] = true
		}
		for _, k := range want {
			if !have[k] {
				t.Errorf("%s event seq %d lacks attribute %q: %+v", family, e.Seq, k, e.Attrs)
			}
		}
	}
	families := make([]string, 0, len(contract))
	for f := range contract {
		families = append(families, f)
	}
	sort.Strings(families)
	for _, f := range families {
		if seen[f] == 0 {
			t.Errorf("no %s event in %d recorded events", f, len(events))
		}
	}
}

// disconnectEvents attaches one switch over a pipe, kills the switch end
// and returns what the controller traced about it.
func disconnectEvents(t *testing.T, g *graph.Graph) []obs.Event {
	t.Helper()
	tr := obs.NewTracer(obs.TracerOptions{})
	gone := make(chan struct{})
	c := controller.New(controller.NewHarness(g), controller.Options{Seed: 1, Trace: tr,
		OnDisconnect: func(graph.NodeID, error) { close(gone) }})
	cli, srv := net.Pipe()
	t.Cleanup(func() { cli.Close(); srv.Close() })
	pc := ofp.NewConn(srv)
	go func() {
		m, _ := pc.Recv()
		pc.Send(&ofp.Hello{XID: m.Xid()})
		m, _ = pc.Recv()
		pc.Send(&ofp.FeaturesReply{XID: m.Xid(), Name: "s1", TimedUpdates: true})
	}()
	if _, err := c.AttachTCP(g.Nodes()[0], ofp.NewConn(cli)); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	select {
	case <-gone:
	case <-time.After(5 * time.Second):
		t.Fatal("OnDisconnect never fired")
	}
	return tr.Events(0)
}
