package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	chronus "github.com/chronus-sdn/chronus"
	"github.com/chronus-sdn/chronus/internal/controller"
	"github.com/chronus-sdn/chronus/internal/obs"
)

// executeOnTestbed replays a solved schedule on an emulated testbed with
// a deterministic tracer attached and returns the tracer once the data
// plane has drained. For a fixed instance and seed the recorded events
// are identical across runs: they carry virtual time only and the
// control-latency model is seeded.
func executeOnTestbed(in *chronus.Instance, s *chronus.Schedule, seed int64) (*chronus.Tracer, error) {
	tracer := chronus.NewTracer(chronus.TracerOptions{})
	tb, ctl, flow, err := controller.Boot(in, "f", nil,
		controller.Options{Seed: seed, Obs: chronus.NewMetricsRegistry(), Trace: tracer})
	if err != nil {
		return nil, err
	}
	tb.AdvanceBy(controller.Headroom)

	start := chronus.Tick(tb.Now()) + controller.Headroom
	shifted := s.Shifted(start)
	// One "sched" event per switch marks the planned activation instant,
	// so the timeline shows plan versus execution.
	for _, v := range sortedSwitches(shifted) {
		tracer.Point(int64(shifted.Times[v]), obs.EvSched, obs.A(obs.KeySwitch, in.G.Name(v)))
	}
	// The whole replay hangs off one root span, same as a chronusd
	// POST /update, so the recorded trace reconstructs into a single
	// connected tree.
	root := tracer.StartSpan(int64(tb.Now()), "update", 0, obs.A("method", "replay"))
	logger.Info("executing schedule on testbed",
		"span", uint64(root.SpanID()), "switches", len(s.Times), "seed", seed, "start", int64(start))
	ctl.SetSpan(root.SpanID())
	err = ctl.ExecuteTimed(in, shifted, flow)
	ctl.SetSpan(0)
	if err != nil {
		root.End(int64(tb.Now()), obs.A("outcome", "error"))
		return nil, err
	}
	// Run past the last activation plus a full drain of both paths.
	drain := chronus.SimTime(in.Init.Delay(in.G)+in.Fin.Delay(in.G)) + 10
	tb.AdvanceTo(chronus.SimTime(shifted.End()) + drain)
	root.End(int64(tb.Now()), obs.A("outcome", "ok"))
	return tracer, nil
}

// executeTrace runs the schedule via executeOnTestbed, writes the raw
// events as JSON Lines to path, and renders a per-switch timeline
// (schedule tick, FlowMod arrival, barrier, activation). The written
// file is byte-identical across runs for a fixed instance and seed.
func executeTrace(out io.Writer, in *chronus.Instance, s *chronus.Schedule, seed int64, path string) error {
	tracer, err := executeOnTestbed(in, s, seed)
	if err != nil {
		return err
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tracer.WriteJSONL(f, 0); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(out, "\ntrace: %d events written to %s\n", len(tracer.Events(0)), path)
	renderTimeline(out, tracer.Events(0))
	return nil
}

func sortedSwitches(s *chronus.Schedule) []chronus.NodeID {
	out := make([]chronus.NodeID, 0, len(s.Times))
	for v := range s.Times {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// renderTimeline prints one lane per switch with its events in virtual-
// time order; events without a switch attribute (barrier spans, data-
// plane incidents) land in the controller lane. Span-carrier events are
// skipped — they duplicate the point events as structure, and the span
// view belongs to BuildSpanForest consumers (chronusd /spans, /dash).
func renderTimeline(out io.Writer, events []chronus.TraceEvent) {
	lanes := make(map[string][]chronus.TraceEvent)
	for _, e := range events {
		if e.Name == chronus.SpanEventName {
			continue
		}
		lane := e.Attr(obs.KeySwitch)
		if lane == "" {
			lane = "controller"
		}
		lanes[lane] = append(lanes[lane], e)
	}
	names := make([]string, 0, len(lanes))
	for name := range lanes {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintln(out, "timeline (virtual ticks):")
	for _, name := range names {
		var parts []string
		for _, e := range lanes[name] {
			parts = append(parts, formatEvent(e))
		}
		fmt.Fprintf(out, "  %-10s %s\n", name+":", strings.Join(parts, "  "))
	}
}

func formatEvent(e chronus.TraceEvent) string {
	label := e.Name
	switch e.Name {
	case obs.EvCtlFlowMod:
		label = "send"
	case obs.EvSwFlowMod:
		label = "recv"
	case obs.EvSwBarrier:
		label = "barrier"
	case obs.EvSwApply:
		label = "apply"
	}
	var extra string
	if skew := e.Attr(obs.KeySkew); skew != "" {
		extra = "(skew " + skew + ")"
	}
	if e.Dur > 0 {
		extra = fmt.Sprintf("(+%d)", e.Dur)
	}
	return fmt.Sprintf("%s@%d%s", label, e.VT, extra)
}
