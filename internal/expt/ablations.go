package expt

import (
	"errors"
	"time"

	"github.com/chronus-sdn/chronus/internal/controller"
	"github.com/chronus-sdn/chronus/internal/metrics"
	"github.com/chronus-sdn/chronus/internal/scheme"
	"github.com/chronus-sdn/chronus/internal/sim"
	"github.com/chronus-sdn/chronus/internal/timesync"
	"github.com/chronus-sdn/chronus/internal/topo"
)

// ClockSkewPoint is one sync-error level of the clock ablation.
type ClockSkewPoint struct {
	SyncErrorNs   int64
	OverloadTicks sim.Time
	Drops         float64
	Violated      int // runs with any overload or drop
	Runs          int
}

// clockSkewSample is one (sync-error level, seed) emulation run.
type clockSkewSample struct {
	over  sim.Time
	drops float64
}

// AblationClockSkew quantifies the paper's premise that microsecond-
// accurate clocks make timed updates safe: the same provably safe schedule
// is executed under clock ensembles of increasing sync error, and the
// emulator records when transient violations appear. With millisecond
// ticks, violations should start once the error approaches the link
// delays. Every (error level, seed) run is an independent emulation on its
// own harness, dispatched through the parallel pool and merged in seed
// order.
func AblationClockSkew(cfg Config) ([]ClockSkewPoint, error) {
	errorsNs := []int64{0, 1_000, 100_000, timesync.TickNs, 5 * timesync.TickNs, 20 * timesync.TickNs, 100 * timesync.TickNs}
	const runs = 5
	samples, err := fanout(cfg, len(errorsNs)*runs, func(i int) (clockSkewSample, error) {
		errNs, seed := errorsNs[i/runs], int64(i%runs)
		var smp clockSkewSample
		// Each run builds its own instance: an Instance builds its path
		// index, its one lazily built table, on first use, so concurrent
		// tasks must not share one.
		in := topo.EmulationTopo()
		var ens *timesync.Ensemble
		if errNs > 0 {
			ens = timesync.New(timesync.Params{
				Seed:           cfg.Seed + seed,
				SyncIntervalNs: 1_000_000_000,
				SyncErrorNs:    errNs,
				DriftPPB:       10_000,
			}, in.G.Nodes())
		}
		h, c, f, err := controller.Boot(in, "agg", ens, controller.Options{Seed: cfg.Seed + seed})
		if err != nil {
			return smp, err
		}
		h.AdvanceTo(300)
		if err := timedExecutor("chronus", 400)(in, c, h, f); err != nil {
			return smp, err
		}
		h.AdvanceTo(900)
		smp.over = h.Net.TotalOverloadTicks()
		smp.drops = h.Net.TotalDrops()
		return smp, nil
	})
	if err != nil {
		return nil, err
	}
	var out []ClockSkewPoint
	for ei, errNs := range errorsNs {
		point := ClockSkewPoint{SyncErrorNs: errNs, Runs: runs}
		for seed := 0; seed < runs; seed++ {
			smp := samples[ei*runs+seed]
			point.OverloadTicks += smp.over
			point.Drops += smp.drops
			if smp.over > 0 || smp.drops > 0 {
				point.Violated++
			}
		}
		out = append(out, point)
	}
	return out, nil
}

// ClockSkewTable renders the ablation.
func ClockSkewTable(points []ClockSkewPoint) *metrics.Table {
	t := &metrics.Table{Header: []string{"sync_error_ns", "violated_runs", "runs", "overload_ticks", "drops"}}
	for _, p := range points {
		t.AddRowf(p.SyncErrorNs, p.Violated, p.Runs, int64(p.OverloadTicks), p.Drops)
	}
	return t
}

// ModePoint compares the greedy acceptance modes (and the naive
// drain-paced sequential baseline) at one size.
type ModePoint struct {
	N                                  int
	ExactMakespan                      float64
	FastMakespan                       float64
	SeqMakespan                        float64
	ExactSeconds                       float64
	FastSeconds                        float64
	ExactSolved, FastSolved, SeqSolved int
	Instances                          int
}

// modeAccum is one scheme's running makespan/solve/time tally within the
// acceptance-mode ablation.
type modeAccum struct {
	solved, count int
	makespanSum   float64
	seconds       float64
}

func (a *modeAccum) meanMakespan() float64 {
	if a.count == 0 {
		return 0
	}
	return a.makespanSum / float64(a.count)
}

// AblationAcceptanceMode compares ModeExact (validator-backed) against
// ModeFast (closed-form in-flight accounting) and the drain-paced
// sequential baseline, all via the registry: solution quality (makespan),
// success rate and scheduling time. This quantifies what the paper's local
// checks give up relative to ground-truth re-validation. One task per
// switch count (each size keeps its own rngFor stream); the per-size
// seconds are wall-clock and so, unlike every other column, vary with the
// worker count.
func AblationAcceptanceMode(cfg Config) ([]ModePoint, error) {
	return fanout(cfg, len(cfg.Sizes), func(si int) (ModePoint, error) {
		n := cfg.Sizes[si]
		cast, err := resolveCast([]schemeRun{
			{name: "chronus"}, {name: "chronus-fast"}, {name: "sequential"},
		})
		if err != nil {
			return ModePoint{}, err
		}
		rng := rngFor(cfg, "ablation-mode", int64(n))
		p := ModePoint{N: n, Instances: cfg.InstancesPerRun}
		accum := map[string]*modeAccum{}
		for _, r := range cast {
			accum[r.name] = &modeAccum{}
		}
		for k := 0; k < cfg.InstancesPerRun; k++ {
			ctx := newInstCtx(rng, instanceParams(n))
			for _, r := range cast {
				a := accum[r.name]
				start := time.Now()
				res, err := r.s.Solve(ctx.in, r.opts)
				a.seconds += time.Since(start).Seconds()
				if err != nil {
					if errors.Is(err, scheme.ErrInfeasible) {
						continue
					}
					return p, err
				}
				a.solved++
				a.makespanSum += float64(res.Schedule.Makespan())
				a.count++
			}
		}
		exact, fast, seq := accum["chronus"], accum["chronus-fast"], accum["sequential"]
		p.ExactSolved, p.FastSolved, p.SeqSolved = exact.solved, fast.solved, seq.solved
		p.ExactMakespan, p.FastMakespan, p.SeqMakespan = exact.meanMakespan(), fast.meanMakespan(), seq.meanMakespan()
		p.ExactSeconds, p.FastSeconds = exact.seconds, fast.seconds
		return p, nil
	})
}

// ModeTable renders the acceptance-mode ablation.
func ModeTable(points []ModePoint) *metrics.Table {
	t := &metrics.Table{Header: []string{
		"switches", "exact_solved", "fast_solved", "seq_solved", "instances",
		"exact_makespan", "fast_makespan", "seq_makespan", "exact_s", "fast_s",
	}}
	for _, p := range points {
		t.AddRowf(p.N, p.ExactSolved, p.FastSolved, p.SeqSolved, p.Instances,
			p.ExactMakespan, p.FastMakespan, p.SeqMakespan, p.ExactSeconds, p.FastSeconds)
	}
	return t
}

// ExecModePoint compares time-triggered execution against barrier pacing.
type ExecModePoint struct {
	Scheme        string
	UpdateTicks   sim.Time
	OverloadTicks sim.Time
	Drops         float64
}

// AblationExecutionMode executes the same Chronus schedule on the emulated
// network (a) time-triggered (timed FlowMods on synchronized clocks) and
// (b) barrier-paced (the literal Algorithm 5 loop, one controller round
// trip per time unit). It reports the data-plane transition duration and
// any transient violations: barrier pacing stretches the update and, with
// control-latency jitter, can break the timing the schedule relies on —
// the paper's core argument for timed SDNs.
func AblationExecutionMode(cfg Config) ([]ExecModePoint, error) {
	// Each scheme runs on its own instance copy (an Instance builds its
	// path index, its one lazily built table, on first use, so concurrent
	// executions must not share one); the topology and the greedy
	// schedule are deterministic, so both schemes still execute the
	// identical update plan.
	run := func(label string, exec executor) (ExecModePoint, error) {
		in := topo.EmulationTopo()
		h, c, f, err := controller.Boot(in, "agg", nil, controller.Options{Seed: cfg.Seed})
		if err != nil {
			return ExecModePoint{}, err
		}
		h.AdvanceTo(400)
		tStart := h.Now()
		if err := exec(in, c, h, f); err != nil {
			return ExecModePoint{}, err
		}
		// Run until the new path carries traffic end to end.
		h.AdvanceTo(tStart + 600)
		// Transition duration: last rate change on any link.
		var last sim.Time
		for _, l := range h.Net.Links() {
			last = max(last, l.LastChange())
		}
		return ExecModePoint{
			Scheme:        label,
			UpdateTicks:   last - tStart,
			OverloadTicks: h.Net.TotalOverloadTicks(),
			Drops:         h.Net.TotalDrops(),
		}, nil
	}
	// The two executions run on independent harnesses; dispatch both
	// through the pool and keep the fixed (timed, barrier-paced) order.
	// Both plan the same registry scheme — only the execution differs.
	entries := []struct {
		label string
		exec  executor
	}{
		{"timed", timedExecutor("chronus", 450)},
		{"barrier-paced", pacedExecutor("chronus")},
	}
	return fanout(cfg, len(entries), func(i int) (ExecModePoint, error) {
		return run(entries[i].label, entries[i].exec)
	})
}

// ExecModeTable renders the execution-mode ablation.
func ExecModeTable(points []ExecModePoint) *metrics.Table {
	t := &metrics.Table{Header: []string{"execution", "update_ticks", "overload_ticks", "drops"}}
	for _, p := range points {
		t.AddRowf(p.Scheme, int64(p.UpdateTicks), int64(p.OverloadTicks), p.Drops)
	}
	return t
}
