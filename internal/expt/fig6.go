package expt

import (
	"fmt"

	"github.com/chronus-sdn/chronus/internal/controller"
	"github.com/chronus-sdn/chronus/internal/emu"
	"github.com/chronus-sdn/chronus/internal/metrics"
	"github.com/chronus-sdn/chronus/internal/sim"
	"github.com/chronus-sdn/chronus/internal/topo"
)

// Fig6Series is one scheme's bandwidth-over-time measurement on the
// monitored link.
type Fig6Series struct {
	Scheme  string
	Samples []controller.Sample
	// Peak is the maximum sampled rate; the capacity is
	// topo.EmulationCapacityMbps.
	Peak float64
	// OverloadTicks is the emulator's ground-truth time over capacity on
	// any link during the run.
	OverloadTicks sim.Time
	// Drops is the total traffic blackholed or looped away.
	Drops float64
}

// Fig6Result reproduces Fig. 6: link bandwidth consumption versus time
// while the ten-switch emulated network (the Mininet stand-in) migrates a
// 500 Mbps aggregate flow, under Chronus timed updates, two-phase commit,
// and order-replacement rounds.
type Fig6Result struct {
	Link   [2]string
	Series []Fig6Series
}

// fig6UpdateAt is the tick at which each scheme starts its update.
const fig6UpdateAt = 500

// Fig6Bandwidth runs the three schemes on fresh emulated networks and
// derives the monitored link's bandwidth series from its byte counters:
// counter delta over each sampling interval divided by the interval —
// the measurement method of the paper's prototype (which polls the
// Floodlight statistics module), reconstructed deterministically from the
// counter timeline after the run.
func Fig6Bandwidth(cfg Config) (*Fig6Result, error) {
	in := topo.EmulationTopo()
	res := &Fig6Result{}

	windowStart := sim.Time(fig6UpdateAt - 2*cfg.Fig6Interval)
	windowEnd := windowStart + sim.Time(int64(cfg.Fig6Samples)*cfg.Fig6Interval)

	// Each series runs on a fresh network (and its own instance copy:
	// Instance carries lazy caches, so concurrent runs must not share
	// one); the monitored link is chosen after the fact as the one OR
	// overloads hardest (relative to its capacity), which is the link the
	// paper's figure zooms in on. All three series then read the same
	// link's counters.
	type runState struct {
		scheme  string
		monitor bool
		h       *controller.Harness
	}

	run := func(label string, execute executor) (runState, error) {
		in := topo.EmulationTopo()
		h, c, f, err := controller.Boot(in, "agg", nil, controller.Options{Seed: cfg.Seed})
		if err != nil {
			return runState{}, fmt.Errorf("%s: provision: %w", label, err)
		}
		h.AdvanceTo(fig6UpdateAt)
		if err := execute(in, c, h, f); err != nil {
			return runState{}, fmt.Errorf("%s: execute: %w", label, err)
		}
		h.AdvanceTo(windowEnd + 10)
		return runState{scheme: label, h: h}, nil
	}

	// The figure's cast: Chronus plans via the registry and executes
	// time-triggered (shifted past the control latency), two-phase commit
	// is a pure execution strategy, and OR plans rounds via the registry
	// and paces them with barriers. The monitor flag marks the run whose
	// worst overloaded link the figure zooms in on.
	entries := []struct {
		label   string
		monitor bool
		exec    executor
	}{
		{"chronus", false, timedExecutor("chronus", fig6UpdateAt+50)},
		{"tp", false, twoPhaseExecutor()},
		{"or", true, roundExecutor("or", 1)},
	}
	runs, err := fanout(cfg, len(entries), func(i int) (runState, error) {
		st, err := run(entries[i].label, entries[i].exec)
		st.monitor = entries[i].monitor
		return st, err
	})
	if err != nil {
		return nil, err
	}

	// Pick the monitored link: the one whose sampled (counter-delta)
	// bandwidth peaks highest in the OR run — the paper's figure zooms in
	// on the link where OR's spike is visible, which is a link that keeps
	// carrying steady traffic while misrouted traffic piles on. Fall back
	// to the final route's egress hop when OR happened to stay clean.
	from, to := in.Fin[len(in.Fin)-2], in.Fin[len(in.Fin)-1]
	bestPeak := 0.0
	for _, st := range runs {
		if !st.monitor {
			continue
		}
		for _, l := range st.h.Net.Links() {
			for _, smp := range sampleTimeline(l.Timeline(), windowStart, sim.Time(cfg.Fig6Interval), cfg.Fig6Samples) {
				if smp.Rate > bestPeak {
					bestPeak = smp.Rate
					from, to = l.From(), l.To()
				}
			}
		}
	}
	res.Link = [2]string{in.G.Name(from), in.G.Name(to)}

	for _, st := range runs {
		link := st.h.Net.Link(from, to)
		s := Fig6Series{
			Scheme:  st.scheme,
			Samples: sampleTimeline(link.Timeline(), windowStart, sim.Time(cfg.Fig6Interval), cfg.Fig6Samples),
		}
		for _, smp := range s.Samples {
			if smp.Rate > s.Peak {
				s.Peak = smp.Rate
			}
		}
		s.OverloadTicks = st.h.Net.TotalOverloadTicks()
		s.Drops = st.h.Net.TotalDrops()
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// sampleTimeline converts a rate-step timeline into per-interval average
// rates: exactly the byte-counter-delta measurement, evaluated offline.
func sampleTimeline(points []emu.RatePoint, start, interval sim.Time, count int) []controller.Sample {
	integrate := func(a, b sim.Time) float64 {
		total := 0.0
		var rate emu.Rate
		prev := a
		for _, p := range points {
			if p.At <= a {
				rate = p.Rate
				continue
			}
			if p.At >= b {
				break
			}
			total += float64(rate) * float64(p.At-prev)
			rate = p.Rate
			prev = p.At
		}
		total += float64(rate) * float64(b-prev)
		return total
	}
	out := make([]controller.Sample, 0, count)
	for i := 0; i < count; i++ {
		a := start + sim.Time(i)*interval
		b := a + interval
		out = append(out, controller.Sample{At: b, Rate: integrate(a, b) / float64(interval)})
	}
	return out
}

// Table renders the series side by side: one row per sampling instant.
func (r *Fig6Result) Table() *metrics.Table {
	t := &metrics.Table{Header: []string{"time"}}
	for _, s := range r.Series {
		t.Header = append(t.Header, s.Scheme+"_mbps")
	}
	if len(r.Series) == 0 {
		return t
	}
	for i := range r.Series[0].Samples {
		row := []string{fmt.Sprintf("%d", r.Series[0].Samples[i].At)}
		for _, s := range r.Series {
			row = append(row, fmt.Sprintf("%.1f", s.Samples[i].Rate))
		}
		t.AddRow(row...)
	}
	return t
}

// Summary renders peak rates and ground-truth overload per scheme.
func (r *Fig6Result) Summary() *metrics.Table {
	t := &metrics.Table{Header: []string{"scheme", "peak_mbps", "capacity", "overload_ticks", "drops"}}
	for _, s := range r.Series {
		t.AddRowf(s.Scheme, s.Peak, topo.EmulationCapacityMbps, int64(s.OverloadTicks), s.Drops)
	}
	return t
}
