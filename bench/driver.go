package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"
)

// runOptions is one benchmark run: one workload, one seed, a time box.
type runOptions struct {
	spec    workloadSpec
	seed    int64
	seconds float64
	traced  bool
	// ops overrides the workload's op count when positive.
	ops int
	// rounds fixes the number of rounds when positive; otherwise rounds
	// start until the time box is used up.
	rounds int
	outDir string
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is a finished run. Its JSON form is the line the driver
// contract asks for; the labelled form (result files) adds the rest.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	workload    string
	seed        int64
	traced      bool
	rounds      int
	ops         int
	fingerprint string
	why         string
	took        time.Duration
	problems    []string
}

// labelledResult is one line of a result file, what compare reads.
type labelledResult struct {
	Workload string                 `json:"workload"`
	Seed     int64                  `json:"seed"`
	Trace    int                    `json:"trace"`
	Correct  bool                   `json:"correct"`
	Metrics  map[string]metricValue `json:"metrics"`
}

// minRounds is the fewest rounds a run makes whatever its time box: the
// per-op minimum needs two to reject anything, and a traced run needs an
// untraced round beside a traced one to price the tracing.
const minRounds = 2

// run executes rounds of o.spec in fresh child processes — so that heap,
// caches and pools start identical in every round — and folds them into
// one result.
func run(o runOptions) (*runResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ops := o.ops
	if ops <= 0 {
		ops = o.spec.ops
	}
	var rounds []roundResult
	start := time.Now()
	for k := 0; ; k++ {
		// A traced run alternates traced and untraced rounds, so both
		// see the same stretch of machine weather.
		traced := o.traced && k%2 == 0
		t := time.Now()
		r, err := runChild(self, o, ops, traced)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, r)
		took := time.Since(t)
		if o.rounds > 0 {
			if k+1 >= o.rounds {
				break
			}
			continue
		}
		if k+1 >= minRounds && time.Since(start)+took > time.Duration(o.seconds*float64(time.Second)) {
			break
		}
	}
	res := aggregate(o, rounds)
	res.took = time.Since(start)
	return res, nil
}

func runChild(self string, o runOptions, ops int, traced bool) (roundResult, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self, "--child", "--workload", o.spec.name,
		"--seed", strconv.FormatInt(o.seed, 10), "--ops", strconv.Itoa(ops),
		"--trace", trace, "--out", o.outDir)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	var r roundResult
	if err := cmd.Run(); err != nil {
		return r, fmt.Errorf("%s round: %w", o.spec.name, err)
	}
	if err := json.Unmarshal(out.Bytes(), &r); err != nil {
		return r, fmt.Errorf("%s round: bad result: %w", o.spec.name, err)
	}
	if len(r.Ops) != ops {
		return r, fmt.Errorf("%s round: %d ops, want %d", o.spec.name, len(r.Ops), ops)
	}
	return r, nil
}

// series extracts one float per op from a round.
func series(r roundResult, f func(opSample) float64) []float64 {
	out := make([]float64, len(r.Ops))
	for i, s := range r.Ops {
		out[i] = f(s)
	}
	return out
}

// minSeries is the per-op minimum of f over rounds.
func minSeries(rounds []roundResult, f func(opSample) float64) []float64 {
	all := make([][]float64, len(rounds))
	for i, r := range rounds {
		all[i] = series(r, f)
	}
	return perOpMin(all)
}

func wallMs(s opSample) float64 { return float64(s.WallNs) / 1e6 }

// aggregate folds the rounds of one run into its metrics: every timed
// quantity per op as the minimum over rounds, every count checked equal
// across rounds.
func aggregate(o runOptions, rounds []roundResult) *runResult {
	res := &runResult{
		Correct: true, Metrics: map[string]metricValue{},
		workload: o.spec.name, seed: o.seed, traced: o.traced, rounds: len(rounds),
		ops: len(rounds[0].Ops), fingerprint: rounds[0].Fingerprint, why: o.spec.why,
	}
	n := res.ops
	problem := func(format string, args ...any) {
		res.Correct = false
		res.problems = append(res.problems, fmt.Sprintf(format, args...))
	}

	// Correctness and determinism across every round of the run.
	nondet := 0
	for i := 0; i < n; i++ {
		var what string
		for _, r := range rounds[1:] {
			a, b := rounds[0].Ops[i], r.Ops[i]
			if d := diffCounts(a.Counts, b.Counts); d != "" {
				what = d
			} else if a.Makespan != b.Makespan {
				what = "makespan"
			} else if a.Digest != b.Digest {
				what = "output digest"
			}
		}
		if what != "" {
			if nondet++; nondet <= 3 {
				problem("op %d: %s differs between rounds", i, what)
			}
		}
	}
	for k, r := range rounds {
		if r.Fingerprint != res.fingerprint {
			problem("round %d generated corpus %s, round 0 %s", k, r.Fingerprint, res.fingerprint)
		}
		for i, s := range r.Ops {
			res.Attempted++
			if s.Failed != "" {
				res.Failed++
				if res.Failed <= 3 {
					problem("round %d op %d: %s", k, i, s.Failed)
				}
			}
		}
	}

	var timed, traced []roundResult
	for _, r := range rounds {
		if r.Traced {
			traced = append(traced, r)
		} else {
			timed = append(timed, r)
		}
	}
	set := func(defs []metricDef, name string, v float64) {
		for _, d := range defs {
			if d.name == name {
				res.Metrics[name] = metricValue{Value: v, Unit: d.unit}
				return
			}
		}
		panic("bench: metric " + name + " is not declared")
	}

	if !o.traced {
		x := minSeries(timed, wallMs)
		setups := make([]float64, len(timed))
		for i, r := range timed {
			setups[i] = float64(r.SetupNs) / 1e9
		}
		set(endToEnd, "latency_p50_ms", median(x))
		set(endToEnd, "ops_per_s", float64(n)/(sum(x)/1e3))
		set(endToEnd, "cpu_ms_per_op", mean(minSeries(timed, func(s opSample) float64 { return float64(s.CPUNs) / 1e6 })))
		set(endToEnd, "alloc_kb_per_op", mean(minSeries(timed, func(s opSample) float64 { return float64(s.AllocB) / 1e3 })))
		set(endToEnd, "setup_s", median(setups))
		return res
	}

	// Per-layer metrics: times from the traced rounds, counts from
	// round 0 (they are equal in every round, or the run is incorrect).
	layerMs := func(span string) float64 {
		return mean(minSeries(traced, func(s opSample) float64 { return float64(s.LayerNs[span]) / 1e6 }))
	}
	count := func(key string) float64 {
		return mean(series(rounds[0], func(s opSample) float64 { return float64(s.Counts[key]) }))
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	for name, span := range layerSpans {
		set(perLayer, name, layerMs(span))
	}
	gen := make([]float64, len(traced))
	emit := make([]float64, len(traced))
	jemit := make([]float64, len(traced))
	cover := make([]float64, len(traced))
	for i, r := range traced {
		gen[i] = float64(r.CorpusGenNs) / 1e6
		emit[i], jemit[i] = r.EmitNs, r.JournalEmitNs
		var layers, total float64
		for _, s := range r.Ops {
			for span, ns := range s.LayerNs {
				total += float64(ns)
				if span != "bench.other" {
					layers += float64(ns)
				}
			}
		}
		cover[i] = 100 * ratio(layers, total)
	}
	set(perLayer, "topo.corpus_gen_ms", minOf(gen))
	set(perLayer, "obs.emit_ns_per_event", minOf(emit))
	set(perLayer, "journal.emit_ns_per_event", minOf(jemit))
	set(perLayer, "bench.layer_coverage_pct", mean(cover))
	set(perLayer, "scheme.cache_hit_ratio", ratio(count("cache_hits"), count("cache_hits")+count("cache_misses")))
	set(perLayer, "core.sched_validations", count("sched_validations"))
	set(perLayer, "dynflow.validate_runs", count("validate_runs"))
	set(perLayer, "dynflow.validate_traces", count("validate_traces"))
	set(perLayer, "dynflow.us_per_validation",
		ratio(1e3*(layerMs("scheme.solve")+layerMs("core.slack")), count("validate_runs")))
	set(perLayer, "controller.boot_ms", mean(minSeries(rounds, func(s opSample) float64 { return float64(s.BootNs) / 1e6 })))
	set(perLayer, "controller.flowmods_per_op", count("flowmods"))
	set(perLayer, "controller.barriers_per_op", count("barriers"))
	set(perLayer, "ofp.msgs_per_op", count("ofp_msgs_sent")+count("ofp_msgs_recv"))
	set(perLayer, "ofp.bytes_per_op", count("ofp_bytes_sent")+count("ofp_bytes_recv"))
	set(perLayer, "obs.events_per_op", count("events"))
	set(perLayer, "journal.bytes_per_op", count("journal_bytes"))
	set(perLayer, "journal.dropped_events", float64(n)*count("journal_dropped"))
	set(perLayer, "journal.read_events_per_s", ratio(count("journal_events_read"), layerMs("journal.read")/1e3))
	set(perLayer, "audit.violations_per_op", count("audit_violations"))
	set(perLayer, "admit.submit_us_per_update", ratio(1e3*layerMs("admit.submit"), count("submitted")))
	set(perLayer, "admit.complete_us_per_hold", ratio(1e3*layerMs("admit.complete"), count("holds_completed")))
	set(perLayer, "admit.waves_per_burst", count("waves"))
	set(perLayer, "admit.component_size_mean", ratio(count("component_size_sum"), count("planned")))
	set(perLayer, "admit.refused_share", ratio(count("refused"), count("submitted")))
	set(perLayer, "admit.ledger_overcommit", float64(n)*count("ledger_overcommit"))
	retained := make([]float64, len(rounds))
	for i, r := range rounds {
		retained[i] = float64(r.RetainedB) / 1e3
	}
	set(perLayer, "admit.retained_kb_per_update", ratio(minOf(retained), float64(n)*count("submitted")))
	var gcs []float64
	for _, r := range rounds {
		gcs = append(gcs, series(r, func(s opSample) float64 { return float64(s.GCs) })...)
	}
	set(perLayer, "runtime.gc_cycles_per_op", mean(gcs))
	set(perLayer, "runtime.mallocs_per_op", mean(minSeries(rounds, func(s opSample) float64 { return float64(s.Mallocs) })))
	// The tail of the untraced rounds that ran between the traced ones.
	set(perLayer, "latency_p95_ms", percentile(minSeries(timed, wallMs), 95))
	set(perLayer, "makespan_ticks_mean", mean(series(rounds[0], func(s opSample) float64 { return float64(s.Makespan) })))
	set(perLayer, "failed_share", ratio(float64(res.Failed), float64(res.Attempted)))
	// As many traced rounds as untraced ones: a minimum over more rounds
	// is lower whatever the rounds carried.
	set(perLayer, "bench.trace_overhead_pct",
		100*(ratio(median(minSeries(traced[:len(timed)], wallMs)), median(minSeries(timed, wallMs)))-1))
	means := make([]float64, len(rounds))
	for i, r := range rounds {
		means[i] = mean(series(r, wallMs))
	}
	sort.Float64s(means)
	set(perLayer, "bench.round_spread_pct", 100*(ratio(means[len(means)-1], means[0])-1))
	set(perLayer, "bench.nondeterministic_ops", float64(nondet))
	return res
}

func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// racyCounts are tallies that legitimately differ between rounds.
// journal_bytes: over TCP the controller and the agents allocate span ids
// concurrently, so which span gets id 999 and which 1000 varies, and a
// barrier span's 24 children spell their parent with one digit more or
// less. The event count and every event's content besides ids repeat.
var racyCounts = map[string]bool{"journal_bytes": true}

// diffCounts names a count that differs between a and b, "" when the
// two are equal.
func diffCounts(a, b map[string]int64) string {
	for k, v := range a {
		if w, ok := b[k]; (!ok || w != v) && !racyCounts[k] {
			return k
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			return k
		}
	}
	return ""
}

// print writes the run as a table of its metrics by name, with units.
func (r *runResult) print(w io.Writer) {
	kind, defs := "end-to-end", endToEnd
	if r.traced {
		kind, defs = "per-layer", perLayer
	}
	fmt.Fprintf(w, "%s  %s  seed %d  corpus %s  %d ops x %d rounds in %.1f s",
		r.workload, kind, r.seed, r.fingerprint, r.ops, r.rounds, r.took.Seconds())
	if r.traced {
		fmt.Fprintf(w, "  (%d samples beyond p95, want %d)", r.ops-int(math.Ceil(0.95*float64(r.ops))), tailSamples)
	}
	fmt.Fprintf(w, "\n  why: %s\n", r.why)
	for _, d := range defs {
		m := r.Metrics[d.name]
		fmt.Fprintf(w, "  %-30s %14.4f %s\n", d.name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "  attempted %d  failed %d  correct %v\n", r.Attempted, r.Failed, r.Correct)
	for _, p := range r.problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
}

// appendTo appends the run as one labelled line to a result file.
func (r *runResult) appendTo(path string) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	trace := 0
	if r.traced {
		trace = 1
	}
	err = json.NewEncoder(f).Encode(labelledResult{
		Workload: r.workload, Seed: r.seed, Trace: trace, Correct: r.Correct, Metrics: r.Metrics,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
