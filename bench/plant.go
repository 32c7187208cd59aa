package main

import (
	"errors"
	"fmt"
	"net"
	"time"

	chronus "github.com/chronus-sdn/chronus"
	"github.com/chronus-sdn/chronus/internal/audit"
	"github.com/chronus-sdn/chronus/internal/clock"
	"github.com/chronus-sdn/chronus/internal/health"
	"github.com/chronus-sdn/chronus/internal/journal"
	"github.com/chronus-sdn/chronus/internal/obs"
	"github.com/chronus-sdn/chronus/internal/ofp"
	"github.com/chronus-sdn/chronus/internal/state"
	"github.com/chronus-sdn/chronus/internal/switchd"
)

// execHeadroom is how many ticks past "now" a timed schedule's first
// activation is shifted to clear the control latency — chronusd's
// default -exec-headroom.
const execHeadroom = 50

// plant is one booted data plane with everything chronusd hangs off it:
// testbed, switch agents (in-process virtual sessions, or one TCP
// connection each), controller, tracer (optionally journaled) and the
// four trace folds. It is cmd/chronusd's newServer without the HTTP and
// admission surface, on a topology the caller chooses.
type plant struct {
	in     *chronus.Instance
	flow   chronus.FlowSpec
	reg    *chronus.MetricsRegistry
	tracer *chronus.Tracer
	tb     *chronus.Testbed
	ctl    *chronus.Controller
	health *health.Engine
	clocks *clock.Estimator
	state  *state.Store
	audit  *audit.Auditor
	// auditCursor is the last trace sequence number fed to audit.
	auditCursor uint64

	journal   *journal.Writer
	listeners []net.Listener
	conns     []*ofp.Conn
}

// plantOptions selects the control channel and the journal.
type plantOptions struct {
	// TCP boots one switchd agent per switch on a loopback socket, as
	// chronusd's bootAgents does; otherwise sessions are virtual.
	TCP bool
	// JournalDir, when set, attaches a journal sink to the tracer.
	JournalDir string
}

// bootPlant boots the data plane for in and provisions its flow on the
// initial path, following newServer: registry, tracer, controller,
// agents, provisioning, two clock-probe rounds, folds.
func bootPlant(in *chronus.Instance, seed int64, o plantOptions) (*plant, error) {
	reg := chronus.NewMetricsRegistry()
	chronus.RegisterAllMetrics(reg)
	journal.RegisterMetrics(reg)
	p := &plant{in: in, reg: reg, audit: audit.New()}
	var sink obs.Sink
	if o.JournalDir != "" {
		jw, err := journal.Open(journal.Options{Dir: o.JournalDir, Fsync: journal.FsyncRotate, Obs: reg})
		if err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
		p.journal = jw
		sink = jw
	}
	p.tracer = chronus.NewTracer(chronus.TracerOptions{Sink: sink})
	in.Obs = reg
	p.tb = chronus.NewTestbed(in.G)
	p.tb.Net.SetObs(reg, p.tracer)
	p.ctl = chronus.NewController(p.tb, chronus.ControllerOptions{Seed: seed, Obs: reg, Trace: p.tracer})
	p.flow = chronus.FlowSpec{Name: "agg", Tag: 0, Path: in.Init, Rate: chronus.Rate(in.Demand)}
	p.health = health.New(reg)
	p.clocks = clock.New(reg)
	p.state = state.New(state.Options{Obs: reg})
	ensemble := chronus.NewClockEnsemble(chronus.DefaultClockParams(seed), in.G.Nodes())
	if o.TCP {
		if err := p.bootAgents(ensemble); err != nil {
			p.close()
			return nil, err
		}
	} else {
		p.ctl.AttachAll(ensemble)
	}
	if err := p.ctl.Provision(p.flow); err != nil {
		p.close()
		return nil, err
	}
	p.health.SetClock(p.clocks)
	now := p.tb.Now()
	for _, at := range []chronus.SimTime{now + 60, now + 120} {
		if err := p.ctl.ProbeClocks("clockprobe", at, in.G.Nodes()...); err != nil {
			p.close()
			return nil, fmt.Errorf("clock probe: %w", err)
		}
	}
	p.tb.AdvanceBy(200)
	if err := p.ctl.DeleteFlow("clockprobe", in.G.Nodes()...); err != nil {
		p.close()
		return nil, fmt.Errorf("clock probe cleanup: %w", err)
	}
	p.clocks.Observe(p.tracer.Events(p.clocks.Cursor()))
	return p, nil
}

// bootAgents starts one TCP listener and agent per switch and connects
// the controller to each (cmd/chronusd's bootAgents).
func (p *plant) bootAgents(ensemble *chronus.ClockEnsemble) error {
	meter := ofp.NewConnMeter(p.reg)
	for _, id := range p.in.G.Nodes() {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		p.listeners = append(p.listeners, ln)
		agent := switchd.New(p.tb.Net, id, ensemble)
		agent.SetObs(p.reg, p.tracer)
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			oc := ofp.NewConn(conn)
			agent.SetNotify(func(m ofp.Msg) { _ = oc.Send(m) })
			defer oc.Close()
			_ = switchd.Serve(oc, agent, p.tb.Do)
		}()
		conn, err := ofp.DialTimeout(ln.Addr().String(), 5*time.Second)
		if err != nil {
			return err
		}
		conn.SetMeter(meter)
		p.conns = append(p.conns, conn)
		name, err := p.ctl.AttachTCP(id, conn)
		if err != nil {
			return err
		}
		if name != p.in.G.Name(id) {
			return fmt.Errorf("switch %d announced %q, want %q", id, name, p.in.G.Name(id))
		}
	}
	return nil
}

// close tears the sockets down and settles the journal.
func (p *plant) close() error {
	for _, c := range p.conns {
		c.Close()
	}
	for _, ln := range p.listeners {
		ln.Close()
	}
	if p.journal != nil {
		return p.journal.Close()
	}
	return nil
}

// emitIntent records the planner-intended end-state before the first
// FlowMod goes out (chronusd's emitIntent).
func (p *plant) emitIntent(id uint64, method, key string, slack int64, sws []state.IntentSwitch) {
	p.tracer.Point(int64(p.tb.Now()), "state.intent",
		obs.A("id", id), obs.A("tenant", "bench"), obs.A("flow", p.flow.Name),
		obs.A("key", key), obs.A("kind", "execute"), obs.A("method", method),
		obs.A("slack", slack), obs.A("switches", state.EncodeIntentSwitches(sws)))
}

// intentAlong lists the final-path promises of every switch in sws, all
// due at tick at(v).
func intentAlong(in *chronus.Instance, sws []chronus.NodeID, at func(chronus.NodeID) int64) []state.IntentSwitch {
	out := make([]state.IntentSwitch, 0, len(sws))
	for _, v := range sws {
		next := "host"
		if nh := in.Fin.NextHop(v); nh != chronus.Invalid {
			next = in.G.Name(nh)
		}
		out = append(out, state.IntentSwitch{Switch: in.G.Name(v), Next: next, At: at(v)})
	}
	return out
}

// underRoot wraps one update in its root span, as chronusd's
// executeUpdate does: control operations inside f hang off it.
func (p *plant) underRoot(method string, f func(root chronus.SpanID) error) error {
	root := p.tracer.StartSpan(int64(p.tb.Now()), "update", 0, obs.A("method", method))
	p.ctl.SetSpan(root.SpanID())
	err := f(root.SpanID())
	p.ctl.SetSpan(0)
	outcome := "ok"
	if err != nil {
		outcome = "error"
	}
	root.End(int64(p.tb.Now()), obs.A("outcome", outcome))
	return err
}

// shifted re-bases a solver schedule so that its first allowed
// activation is execHeadroom ticks from now.
func (p *plant) shifted(s *chronus.Schedule) *chronus.Schedule {
	start := chronus.Tick(p.tb.Now()) + execHeadroom
	out := chronus.NewSchedule(start)
	for v, tv := range s.Times {
		out.Set(v, start+(tv-s.Start))
	}
	return out
}

// executeTimed plans p.in's migration with the chronus scheme,
// certifies its slack and executes it time-triggered, then drains the
// data plane: chronusd's executeUpdate + executePlanned (timed branch) +
// executeAdmitted's settling advance, one layer span per stage.
func (p *plant) executeTimed(id uint64, rec *recorder) error {
	in := p.in
	return p.underRoot("chronus", func(root chronus.SpanID) error {
		var res *chronus.SchemeResult
		var report *chronus.Report
		var err error
		rec.layer("scheme.solve", func() {
			res, err = chronus.SolveWith("chronus", in, chronus.SchemeOptions{
				Obs: p.reg, Trace: p.tracer, VT: int64(p.tb.Now()), Span: root,
			})
			if err == nil && res.Schedule != nil {
				if report = res.Report; report == nil {
					report = chronus.Validate(in, res.Schedule)
				}
			}
		})
		if err != nil {
			return err
		}
		if res.Schedule == nil {
			return errors.New("chronus produced no timed schedule")
		}
		sched := p.shifted(res.Schedule)
		plan := health.Plan{Kind: "timed", Valid: report.OK(), StartTick: int64(p.tb.Now())}
		rec.layer("core.slack", func() {
			for _, sl := range chronus.ScheduleSlack(in, res.Schedule) {
				plan.Switches = append(plan.Switches, health.PlanSwitch{
					Switch:     in.G.Name(sl.V),
					SlackTicks: int64(sl.Slack),
					ApplyTick:  int64(sched.Start + (sl.Time - res.Schedule.Start)),
					Critical:   sl.Critical,
				})
			}
		})
		p.health.SetPlan(plan)
		var minSlack int64
		for i, sw := range plan.Switches {
			if i == 0 || sw.SlackTicks < minSlack {
				minSlack = sw.SlackTicks
			}
		}
		if err := p.fire(id, root, sched, minSlack, report.OK(), rec); err != nil {
			return err
		}
		if !report.OK() {
			return errors.New("validator: the schedule is not clean")
		}
		return nil
	})
}

// fire records the plan span and the intent of an already shifted
// schedule, executes it time-triggered and drains the data plane.
func (p *plant) fire(id uint64, root chronus.SpanID, sched *chronus.Schedule, minSlack int64, valid bool, rec *recorder) error {
	in := p.in
	now := int64(p.tb.Now())
	p.tracer.EmitSpan("plan", root, now, now,
		obs.A("kind", "timed"), obs.A("switches", len(sched.Times)),
		obs.A("start", int64(sched.Start)), obs.A("valid", valid))
	scheduled := make([]chronus.NodeID, 0, len(sched.Times))
	for v := range sched.Times {
		scheduled = append(scheduled, v)
	}
	p.emitIntent(id, "chronus", fmt.Sprintf("%s/%d", p.flow.Name, p.flow.Tag), minSlack,
		intentAlong(in, scheduled, func(v chronus.NodeID) int64 { return int64(sched.Times[v]) }))
	var err error
	rec.layer("controller.execute", func() { err = p.ctl.ExecuteTimed(in, sched, p.flow) })
	if err != nil {
		return err
	}
	rec.layer("emu.settle", func() {
		drain := chronus.SimTime(in.Init.Delay(in.G)+in.Fin.Delay(in.G)) + 10
		p.tb.AdvanceTo(chronus.SimTime(sched.End()) + drain)
	})
	return nil
}

// executeTwoPhase runs the TP baseline toward p.in.Fin under a fresh
// version tag (chronusd's "tp" branch) and drains; on return the flow
// sits on p.in.Fin under the new tag.
func (p *plant) executeTwoPhase(id uint64, rec *recorder) error {
	in := p.in
	return p.underRoot("tp", func(chronus.SpanID) error {
		p.health.SetPlan(health.Plan{Kind: "twophase", Valid: true})
		now := int64(p.tb.Now())
		newTag := p.flow.Tag + 1
		p.emitIntent(id, "tp", fmt.Sprintf("%s/%d", p.flow.Name, newTag), 0,
			intentAlong(in, in.Fin, func(chronus.NodeID) int64 { return now }))
		var err error
		rec.layer("controller.execute", func() { err = p.ctl.ExecuteTwoPhase(in, p.flow, newTag) })
		if err != nil {
			return err
		}
		rec.layer("emu.settle", func() {
			p.tb.AdvanceBy(chronus.SimTime(2 * (in.Init.Delay(in.G) + in.Fin.Delay(in.G))))
		})
		p.flow.Tag = newTag
		p.flow.Path = in.Fin
		return nil
	})
}

// foldResult is what the four folds concluded about one update.
type foldResult struct {
	violations int
	status     string
	makespan   int64
}

// fold feeds the trace events recorded since the last call to the
// auditor, the clock estimator, the health engine and the state store —
// what chronusd's /audit, /clocks, /health and /drift handlers do on
// read — and reports update id's verdicts.
func (p *plant) fold(id uint64, rec *recorder) foldResult {
	var out foldResult
	rec.layer("audit.fold", func() {
		evs := p.tracer.Events(p.auditCursor)
		p.auditCursor = lastSeq(evs, p.auditCursor)
		p.audit.Feed(evs...)
		out.violations = p.audit.Report().Violations()
	})
	rec.layer("clock.fold", func() {
		p.clocks.Observe(p.tracer.Events(p.clocks.Cursor()))
		p.clocks.Estimates()
	})
	rec.layer("health.fold", func() {
		p.health.Observe(p.tracer.Events(p.health.Cursor()))
		p.health.Verdict()
	})
	rec.layer("state.fold", func() {
		ps := p.tracer.PageStats(p.state.Cursor(), 0)
		p.state.NoteSkipped(ps.Skipped)
		p.state.Observe(ps.Events)
		out.status, out.makespan = driftOf(p.state.DriftBody(), id)
	})
	return out
}

// driftOf returns update id's drift status and its update time: ticks
// from the plan to the last observed apply.
func driftOf(rep state.DriftReport, id uint64) (status string, makespan int64) {
	for _, u := range rep.Updates {
		if u.ID != id || u.Run != rep.Run {
			continue
		}
		for _, sw := range u.Switches {
			if d := sw.AppliedAt - u.PlannedAt; d > makespan {
				makespan = d
			}
		}
		return u.Status, makespan
	}
	return "untracked", 0
}

// lastSeq returns the sequence number of the newest event in evs, or
// prev when evs is empty: the cursor to resume a tracer read from.
func lastSeq(evs []chronus.TraceEvent, prev uint64) uint64 {
	if n := len(evs); n > 0 {
		return evs[n-1].Seq
	}
	return prev
}
