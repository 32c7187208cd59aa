package expt

import (
	"errors"
	"math/rand"

	"github.com/chronus-sdn/chronus/internal/baseline"
	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/metrics"
	"github.com/chronus-sdn/chronus/internal/scheme"
)

// SizePoint aggregates one scheme's outcome at one switch count.
type SizePoint struct {
	N int
	// CongestionFreePct is the percentage of update instances for which
	// the scheme produced a congestion-free update (Fig. 7).
	CongestionFreePct float64
	// MeanCongestedLinks is the average number of congested time-extended
	// link instances per update instance (Fig. 8).
	MeanCongestedLinks float64
	// Instances is the number of instances behind the point.
	Instances int
}

// Fig7Result carries the Fig. 7 percentages per scheme, and Fig8Result the
// congested-link counts; both come from the same instance population, so
// EvaluateQuality computes them together.
type Fig7Result struct {
	Chronus, OPT, OR []SizePoint
	// Audit cross-checks the analytic validator against the runtime
	// auditor, indexed like the scheme slices: per size, how many sampled
	// executions were audited and how often the two verdicts agreed (a
	// clean Chronus schedule must audit clean; a one-shot update the
	// validator flags must be flagged by the auditor too).
	Audit []AuditPoint
}

// AuditPoint is one size's validator-versus-auditor tally.
type AuditPoint struct {
	N      int
	Checks int
	Agree  int
}

// Fig8Result carries the congested time-extended link counts (Fig. 8
// compares Chronus and OR).
type Fig8Result struct {
	Chronus, OR []SizePoint
}

// fig7Cast is the Fig. 7/8 scheme set, resolved from the registry. The
// order is load-bearing twice over: the OR replay consumes rng jitter
// right after the instance draw it belongs to, and the first entry is the
// timed scheme whose sampled executions the runtime audit cross-checks.
func fig7Cast(cfg Config) ([]schemeRun, error) {
	return resolveCast([]schemeRun{
		{name: "chronus", opts: scheme.Options{BestEffort: true}},
		{name: "or"},
		{name: "opt", opts: scheme.Options{Budget: scheme.Budget{MaxNodes: cfg.OPTNodes}}, sampled: true},
	})
}

// schemeTally is one scheme's partial counts within a task.
type schemeTally struct {
	free, total int
	congSum     float64
}

// score folds one solve outcome into the tally, dispatching on the shape
// of the result rather than the scheme's name: timed schedules count their
// validated report (clean by construction unless flagged best-effort),
// round sequences are replayed on the validator with intra-round jitter
// from rng, and infeasibility charges the whole final path.
func (st *schemeTally) score(ctx *instCtx, res *scheme.Result, err error, rng *rand.Rand, width dynflow.Tick) {
	st.total++
	switch {
	case err != nil:
		// Infeasible for this scheme's notion of a solution: stuck rounds
		// or a proven-empty search. Count the whole path as congested.
		st.congSum += float64(len(ctx.in.Fin))
	case res.Rounds != nil && res.Schedule == nil:
		s := baseline.ORSchedule(res.Rounds, baseline.ORScheduleOptions{Start: 0, RoundWidth: width, Rng: rng})
		r := dynflow.Validate(ctx.in, s)
		st.congSum += float64(r.CongestedLinkInstances())
		// Congestion-free means no congested link instances and no
		// transient loops — the same test the best-effort branch applies.
		if r.CongestedLinkInstances() == 0 && len(r.Loops) == 0 {
			st.free++
		}
	case res.Schedule != nil && res.BestEffort:
		st.congSum += float64(res.Report.CongestedLinkInstances())
		if res.Report.CongestedLinkInstances() == 0 && len(res.Report.Loops) == 0 {
			st.free++
		}
	case res.Schedule != nil:
		st.free++ // violation-free by construction (property-tested)
	default:
		// Budget ran out with no incumbent: not congestion-free, nothing
		// measurable to charge.
	}
}

// qualityTally is one (size, run) task's partial counts per cast scheme;
// per-size points merge tallies in run order.
type qualityTally struct {
	schemes                 map[string]*schemeTally
	auditChecks, auditAgree int
}

func (t *qualityTally) tally(name string) *schemeTally {
	if t.schemes == nil {
		t.schemes = map[string]*schemeTally{}
	}
	st, ok := t.schemes[name]
	if !ok {
		st = &schemeTally{}
		t.schemes[name] = st
	}
	return st
}

func (t *qualityTally) add(o qualityTally) {
	for name, st := range o.schemes {
		dst := t.tally(name)
		dst.free += st.free
		dst.total += st.total
		dst.congSum += st.congSum
	}
	t.auditChecks += o.auditChecks
	t.auditAgree += o.auditAgree
}

// qualityRun evaluates one run's InstancesPerRun instances under its own
// rngFor-derived generator; it is the unit of the parallel fan-out. Each
// instance context is built once and shared by every cast scheme.
func qualityRun(cfg Config, n, run int) (qualityTally, error) {
	rng := rngFor(cfg, "fig7", int64(n)*1000+int64(run))
	cast, err := fig7Cast(cfg)
	if err != nil {
		return qualityTally{}, err
	}
	evalSampled := run < cfg.OPTRuns
	var t qualityTally
	for k := 0; k < cfg.InstancesPerRun; k++ {
		ctx := newInstCtx(rng, instanceParams(n))

		// cast[0] is the timed scheme whose sampled executions the
		// runtime audit replays below.
		var timed *scheme.Result
		for i, r := range cast {
			if r.sampled && !evalSampled {
				continue
			}
			res, err := r.s.Solve(ctx.in, r.opts)
			if err != nil && !errors.Is(err, scheme.ErrInfeasible) {
				return t, err
			}
			t.tally(r.name).score(ctx, res, err, rng, cfg.ORRoundWidth)
			if i == 0 {
				timed = res
			}
		}

		// Runtime audit cross-check on the first instance of each run:
		// execute on the emulated testbed and let the trace auditor
		// re-derive the verdict independently of the validator. A clean
		// schedule must audit clean; the one-shot baseline must be flagged
		// whenever the validator flags it. The testbed draws no numbers
		// from rng, so the other columns are unaffected.
		if k == 0 {
			execSeed := int64(n)*100_003 + int64(run)
			if timed != nil && !timed.BestEffort {
				rep, err := auditedExecution(ctx.in, timed.Schedule, execSeed)
				if err != nil {
					return t, err
				}
				t.auditChecks++
				if rep.OK() && rep.DetectorsAgree {
					t.auditAgree++
				}
			}
			oneShot, err := scheme.Solve("oneshot", ctx.in, scheme.Options{})
			if err != nil {
				return t, err
			}
			rep, err := auditedExecution(ctx.in, oneShot.Schedule, execSeed+1)
			if err != nil {
				return t, err
			}
			t.auditChecks++
			if oneShot.Report.OK() == rep.OK() && rep.DetectorsAgree {
				t.auditAgree++
			}
		}
	}
	return t, nil
}

// EvaluateQuality runs the Fig. 7/8 simulation: per switch count, Runs
// independent runs of InstancesPerRun random update instances; each
// instance is evaluated by the registry cast of fig7Cast (Chronus with
// best-effort fallback, OR rounds replayed with intra-round jitter, and —
// on a subset of runs — budgeted OPT). Runs execute concurrently
// (cfg.Procs workers) and merge in (size, run) order, so the result is
// independent of the worker count.
func EvaluateQuality(cfg Config) (*Fig7Result, *Fig8Result, error) {
	f7 := &Fig7Result{}
	f8 := &Fig8Result{}
	tallies, err := fanout(cfg, len(cfg.Sizes)*cfg.Runs, func(i int) (qualityTally, error) {
		return qualityRun(cfg, cfg.Sizes[i/cfg.Runs], i%cfg.Runs)
	})
	if err != nil {
		return nil, nil, err
	}
	for si, n := range cfg.Sizes {
		var t qualityTally
		for run := 0; run < cfg.Runs; run++ {
			t.add(tallies[si*cfg.Runs+run])
		}
		chr, or, opt := t.tally("chronus"), t.tally("or"), t.tally("opt")
		f7.Chronus = append(f7.Chronus, SizePoint{N: n, CongestionFreePct: metrics.Percent(chr.free, chr.total), Instances: chr.total})
		f7.OR = append(f7.OR, SizePoint{N: n, CongestionFreePct: metrics.Percent(or.free, or.total), Instances: or.total})
		f7.OPT = append(f7.OPT, SizePoint{N: n, CongestionFreePct: metrics.Percent(opt.free, opt.total), Instances: opt.total})
		f7.Audit = append(f7.Audit, AuditPoint{N: n, Checks: t.auditChecks, Agree: t.auditAgree})
		f8.Chronus = append(f8.Chronus, SizePoint{N: n, MeanCongestedLinks: chr.congSum / float64(chr.total), Instances: chr.total})
		f8.OR = append(f8.OR, SizePoint{N: n, MeanCongestedLinks: or.congSum / float64(or.total), Instances: or.total})
	}
	return f7, f8, nil
}

// Table renders Fig. 7: % congestion-free instances per scheme and size,
// plus the runtime-audit cross-check columns (audited executions and how
// many agreed with the analytic validator's verdict).
func (r *Fig7Result) Table() *metrics.Table {
	t := &metrics.Table{Header: []string{"switches", "chronus_pct", "opt_pct", "or_pct", "audit_checks", "audit_agree"}}
	for i := range r.Chronus {
		t.AddRowf(r.Chronus[i].N, r.Chronus[i].CongestionFreePct, r.OPT[i].CongestionFreePct, r.OR[i].CongestionFreePct,
			r.Audit[i].Checks, r.Audit[i].Agree)
	}
	return t
}

// Table renders Fig. 8: mean congested time-extended links per scheme.
func (r *Fig8Result) Table() *metrics.Table {
	t := &metrics.Table{Header: []string{"switches", "chronus_links", "or_links"}}
	for i := range r.Chronus {
		t.AddRowf(r.Chronus[i].N, r.Chronus[i].MeanCongestedLinks, r.OR[i].MeanCongestedLinks)
	}
	return t
}
