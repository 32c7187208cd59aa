package expt

import (
	"fmt"
	"slices"

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
// Floodlight statistics module). The counters are read at each sampling
// boundary by kernel events scheduled before the run, so the series is
// exact and deterministic.
func Fig6Bandwidth(cfg Config) (*Fig6Result, error) {
	in := topo.EmulationTopo()
	res := &Fig6Result{}

	interval := sim.Time(cfg.Fig6Interval)
	windowStart := fig6UpdateAt - 2*interval
	windowEnd := windowStart + sim.Time(cfg.Fig6Samples)*interval

	// Each series runs on a fresh network (and its own instance copy: an
	// Instance builds its path index, its one lazily built table, on
	// first use, so concurrent runs must not share one); the monitored
	// link is chosen after the fact as the one OR overloads hardest
	// (relative to its capacity), which is the link the paper's figure
	// zooms in on. All three series then read the same link's counters.
	type runState struct {
		scheme  string
		monitor bool
		h       *controller.Harness
		// series holds every link's samples, indexed like h.Net.Links().
		series [][]controller.Sample
	}

	run := func(label string, execute executor) (runState, error) {
		in := topo.EmulationTopo()
		h, c, f, err := controller.Boot(in, "agg", nil, controller.Options{Seed: cfg.Seed})
		if err != nil {
			return runState{}, fmt.Errorf("%s: provision: %w", label, err)
		}
		series := pollCounters(h, windowStart, interval, cfg.Fig6Samples)
		h.AdvanceTo(fig6UpdateAt)
		if err := execute(in, c, h, f); err != nil {
			return runState{}, fmt.Errorf("%s: execute: %w", label, err)
		}
		h.AdvanceTo(windowEnd + 10)
		return runState{scheme: label, h: h, series: series}, nil
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
	links := runs[0].h.Net.Links() // the same order in every run
	monitored := slices.IndexFunc(links, func(l *emu.Link) bool {
		return l.From() == in.Fin[len(in.Fin)-2] && l.To() == in.Fin[len(in.Fin)-1]
	})
	bestPeak := 0.0
	for _, st := range runs {
		if !st.monitor {
			continue
		}
		for j, samples := range st.series {
			for _, smp := range samples {
				if smp.Rate > bestPeak {
					bestPeak = smp.Rate
					monitored = j
				}
			}
		}
	}
	res.Link = [2]string{in.G.Name(links[monitored].From()), in.G.Name(links[monitored].To())}

	for _, st := range runs {
		s := Fig6Series{Scheme: st.scheme, Samples: st.series[monitored]}
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

// pollCounters schedules, before the run, a reading of every link's byte
// counter at each of the count+1 sampling boundaries from start on, the
// way the paper's prototype polls port statistics. Each reading after the
// first appends the counter delta over the interval to series[j], link j
// of Net.Links().
func pollCounters(h *controller.Harness, start, interval sim.Time, count int) (series [][]controller.Sample) {
	links := h.Net.Links()
	series = make([][]controller.Sample, len(links))
	prev := make([]float64, len(links))
	for j := range series {
		series[j] = make([]controller.Sample, 0, count)
	}
	first := true
	poll := func() {
		for j, l := range links {
			b := l.Bytes()
			if !first {
				series[j] = append(series[j], controller.Sample{At: h.K.Now(), Rate: (b - prev[j]) / float64(interval)})
			}
			prev[j] = b
		}
		first = false
	}
	h.Do(func() {
		for i := 0; i <= count; i++ {
			h.K.At(start+sim.Time(i)*interval, poll)
		}
	})
	return series
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
