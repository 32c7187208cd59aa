// Benchmarks regenerating every table and figure of the paper's evaluation
// (Table II, Figs. 6-11) plus the ablations from DESIGN.md. Each benchmark
// runs the corresponding experiment at Quick scale and reports the headline
// quantity of the figure through b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper's comparisons end to end (use cmd/experiments for
// the full-scale tables). Micro-benchmarks for the scheduler and validator
// follow.
package chronus_test

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	chronus "github.com/chronus-sdn/chronus"
	"github.com/chronus-sdn/chronus/internal/baseline"
	"github.com/chronus-sdn/chronus/internal/batch"
	"github.com/chronus-sdn/chronus/internal/core"
	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/expt"
	"github.com/chronus-sdn/chronus/internal/graph"
	"github.com/chronus-sdn/chronus/internal/topo"
)

const benchSeed = 20170605 // ICDCS'17 week; fixed for reproducibility

func BenchmarkTable2FlowTables(b *testing.B) {
	cfg := expt.Quick(benchSeed)
	for i := 0; i < b.N; i++ {
		res, err := expt.Table2FlowTables(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Source.Rows) == 0 || len(res.Dest.Rows) == 0 {
			b.Fatal("empty flow tables")
		}
	}
}

func BenchmarkFig6BandwidthSeries(b *testing.B) {
	cfg := expt.Quick(benchSeed)
	var orPeak float64
	for i := 0; i < b.N; i++ {
		res, err := expt.Fig6Bandwidth(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range res.Series {
			if s.Scheme == "or" {
				orPeak = s.Peak
			}
		}
	}
	b.ReportMetric(orPeak, "or_peak_mbps")
	b.ReportMetric(float64(topo.EmulationCapacityMbps), "capacity_mbps")
}

func BenchmarkFig7CongestionCases(b *testing.B) {
	cfg := expt.Quick(benchSeed)
	var chr, or float64
	for i := 0; i < b.N; i++ {
		f7, _, err := expt.EvaluateQuality(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last := len(f7.Chronus) - 1
		chr, or = f7.Chronus[last].CongestionFreePct, f7.OR[last].CongestionFreePct
	}
	b.ReportMetric(chr, "chronus_free_pct")
	b.ReportMetric(or, "or_free_pct")
}

func BenchmarkFig8CongestedLinks(b *testing.B) {
	cfg := expt.Quick(benchSeed)
	var chr, or float64
	for i := 0; i < b.N; i++ {
		_, f8, err := expt.EvaluateQuality(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last := len(f8.Chronus) - 1
		chr, or = f8.Chronus[last].MeanCongestedLinks, f8.OR[last].MeanCongestedLinks
	}
	b.ReportMetric(chr, "chronus_links")
	b.ReportMetric(or, "or_links")
}

func BenchmarkFig9RuleOverhead(b *testing.B) {
	cfg := expt.Quick(benchSeed)
	var savings float64
	for i := 0; i < b.N; i++ {
		res, err := expt.Fig9RuleOverhead(cfg)
		if err != nil {
			b.Fatal(err)
		}
		savings = res.Points[len(res.Points)-1].SavingsPct
	}
	b.ReportMetric(savings, "rule_savings_pct")
}

func BenchmarkFig10RunningTime(b *testing.B) {
	cfg := expt.Quick(benchSeed)
	var chr, opt float64
	for i := 0; i < b.N; i++ {
		res, err := expt.Fig10RunningTime(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last := res.Points[len(res.Points)-1]
		chr, opt = last.Chronus, last.OPT
	}
	b.ReportMetric(chr, "chronus_s")
	b.ReportMetric(opt, "opt_budgeted_s")
}

func BenchmarkFig11UpdateTimeCDF(b *testing.B) {
	cfg := expt.Quick(benchSeed)
	var chrMed, optMed float64
	for i := 0; i < b.N; i++ {
		res, err := expt.Fig11UpdateTimeCDF(cfg)
		if err != nil {
			b.Fatal(err)
		}
		chrMed, optMed = res.Chronus.Inverse(0.5), res.OPT.Inverse(0.5)
	}
	b.ReportMetric(chrMed, "chronus_median_units")
	b.ReportMetric(optMed, "opt_median_units")
}

func BenchmarkAblationClockSkew(b *testing.B) {
	cfg := expt.Quick(benchSeed)
	var safeAt1us, violatedWorst float64
	for i := 0; i < b.N; i++ {
		points, err := expt.AblationClockSkew(cfg)
		if err != nil {
			b.Fatal(err)
		}
		safeAt1us = float64(points[1].Violated)
		violatedWorst = float64(points[len(points)-1].Violated)
	}
	b.ReportMetric(safeAt1us, "violations_at_1us")
	b.ReportMetric(violatedWorst, "violations_at_100ms")
}

func BenchmarkAblationAcceptanceMode(b *testing.B) {
	cfg := expt.Quick(benchSeed)
	cfg.Sizes = []int{20}
	cfg.InstancesPerRun = 10
	var exact, fast float64
	for i := 0; i < b.N; i++ {
		points, err := expt.AblationAcceptanceMode(cfg)
		if err != nil {
			b.Fatal(err)
		}
		exact, fast = points[0].ExactMakespan, points[0].FastMakespan
	}
	b.ReportMetric(exact, "exact_makespan")
	b.ReportMetric(fast, "fast_makespan")
}

func BenchmarkAblationExecutionMode(b *testing.B) {
	cfg := expt.Quick(benchSeed)
	var timed, paced float64
	for i := 0; i < b.N; i++ {
		points, err := expt.AblationExecutionMode(cfg)
		if err != nil {
			b.Fatal(err)
		}
		timed, paced = float64(points[0].UpdateTicks), float64(points[1].UpdateTicks)
	}
	b.ReportMetric(timed, "timed_update_ticks")
	b.ReportMetric(paced, "barrier_paced_ticks")
}

// Parallel-harness variants: the heaviest generators at procs=1 (the
// serial reference path) versus procs=GOMAXPROCS, for measuring the
// fan-out speedup. The rendered tables are byte-identical either way (see
// the determinism tests in internal/expt); only wall-clock changes.

func benchWithProcs(b *testing.B, gen func(cfg expt.Config) error) {
	variants := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		variants = append(variants, n)
	}
	for _, procs := range variants {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			cfg := expt.Quick(benchSeed)
			cfg.Procs = procs
			for i := 0; i < b.N; i++ {
				if err := gen(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkParallelEvaluateQuality(b *testing.B) {
	benchWithProcs(b, func(cfg expt.Config) error {
		_, _, err := expt.EvaluateQuality(cfg)
		return err
	})
}

func BenchmarkParallelFig9RuleOverhead(b *testing.B) {
	benchWithProcs(b, func(cfg expt.Config) error {
		_, err := expt.Fig9RuleOverhead(cfg)
		return err
	})
}

func BenchmarkParallelFig11UpdateTimeCDF(b *testing.B) {
	benchWithProcs(b, func(cfg expt.Config) error {
		_, err := expt.Fig11UpdateTimeCDF(cfg)
		return err
	})
}

func BenchmarkParallelAblationClockSkew(b *testing.B) {
	benchWithProcs(b, func(cfg expt.Config) error {
		_, err := expt.AblationClockSkew(cfg)
		return err
	})
}

// BenchmarkSchemesFig1 runs every registered scheme on the Fig. 1 example
// through the registry facade — one sub-benchmark per name, driven by
// chronus.Schemes() so a newly registered scheme is benchmarked without
// touching this file. Infeasible and unsupported outcomes are legitimate
// results for some (scheme, instance) pairs, not benchmark failures.
func BenchmarkSchemesFig1(b *testing.B) {
	for _, name := range chronus.Schemes() {
		b.Run(name, func(b *testing.B) {
			in := chronus.Fig1Example()
			opts := chronus.SchemeOptions{MaxNodes: 200_000}
			for i := 0; i < b.N; i++ {
				_, err := chronus.SolveWith(name, in, opts)
				if err != nil && !errors.Is(err, chronus.ErrInfeasible) && !errors.Is(err, chronus.ErrSchemeUnsupported) {
					b.Fatal(err)
				}
			}
		})
	}
}

// Micro-benchmarks for the core engines.

func benchInstance(n int) *chronus.Instance {
	rng := rand.New(rand.NewSource(benchSeed))
	return topo.RandomInstance(rng, topo.DefaultRandomParams(n))
}

func BenchmarkGreedyExactN40(b *testing.B) {
	in := benchInstance(40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := core.Greedy(in, core.Options{Mode: core.ModeExact, BestEffort: true})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGreedyExactBig is the exact engine at Fig. 10's smallest size:
// n = 200 with Fig. 10's instance shape (a shallower final path, delays of
// at most 2).
func BenchmarkGreedyExactBig(b *testing.B) {
	p := topo.DefaultRandomParams(200)
	p.FinalInclude, p.MaxDelay = 0.3, 2
	in := topo.RandomInstance(rand.New(rand.NewSource(benchSeed)), p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := core.Greedy(in, core.Options{Mode: core.ModeExact, BestEffort: true})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGreedyFastN40(b *testing.B) {
	in := benchInstance(40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := core.Greedy(in, core.Options{Mode: core.ModeFast, BestEffort: true})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGreedyFastN1000(b *testing.B) {
	in := benchInstance(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := core.Greedy(in, core.Options{Mode: core.ModeFast, BestEffort: true})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkValidateN40(b *testing.B) {
	in := benchInstance(40)
	res, err := core.Greedy(in, core.Options{Mode: core.ModeFast, BestEffort: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dynflow.Validate(in, res.Schedule)
	}
}

// merged192 is the admission ruler's topology: sixteen n = 12 pods (demand
// 4, mostly slack links, delays up to 3) re-rooted into one 192-node graph.
func merged192() (*graph.Graph, []*chronus.Instance) {
	rng := rand.New(rand.NewSource(benchSeed))
	p := topo.DefaultRandomParams(12)
	p.Demand, p.TightFraction, p.MaxDelay = 4, 0.25, 3
	g := graph.New()
	pods := make([]*chronus.Instance, 16)
	for i := range pods {
		pods[i], _ = topo.Embed(g, topo.RandomInstance(rng, p), fmt.Sprintf("p%d.", i))
	}
	return g, pods
}

// BenchmarkValidateEmbedded validates one pod's schedule inside the
// 192-node graph: warm reuses one instance (the greedy loop's case), fresh
// builds the instance per validation (admission composes one per flow).
func BenchmarkValidateEmbedded(b *testing.B) {
	_, pods := merged192()
	in := pods[0]
	res, err := core.Greedy(in, core.Options{Mode: core.ModeFast, BestEffort: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dynflow.Validate(in, res.Schedule)
		}
	})
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dynflow.Validate(&dynflow.Instance{G: in.G, Demand: in.Demand, Init: in.Init, Fin: in.Fin}, res.Schedule)
		}
	})
}

// BenchmarkGreedyExactEmbedded solves one pod with the exact engine inside
// the 192-node graph on a fresh Instance per op: admission's solve shape,
// so the per-solve set-up (tracer tables, path index, kernel scratch) is
// paid every time.
func BenchmarkGreedyExactEmbedded(b *testing.B) {
	_, pods := merged192()
	var pod *chronus.Instance
	for _, p := range pods {
		if _, err := core.Greedy(p, core.Options{Mode: core.ModeExact}); err == nil {
			pod = p
			break
		}
	}
	if pod == nil {
		b.Fatal("no feasible pod")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := &dynflow.Instance{G: pod.G, Demand: pod.Demand, Init: pod.Init, Fin: pod.Fin}
		if _, err := core.Greedy(in, core.Options{Mode: core.ModeExact}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkValidateJoint3 is the joint check of three unit-demand flows
// composed in one pod of the 192-node graph, two migrating one way and one
// the other.
func BenchmarkValidateJoint3(b *testing.B) {
	g, pods := merged192()
	var plan *batch.Plan
	for _, pod := range pods {
		flows := []batch.Flow{
			{Name: "a", Demand: 1, Init: pod.Init, Fin: pod.Fin},
			{Name: "b", Demand: 1, Init: pod.Fin, Fin: pod.Init},
			{Name: "c", Demand: 1, Init: pod.Init, Fin: pod.Fin},
		}
		if p, err := batch.Solve(g, flows, batch.Options{}); err == nil {
			plan = p
			break
		}
	}
	if plan == nil {
		b.Fatal("no pod composes three flows")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r, err := dynflow.ValidateJoint(plan.Updates); err != nil || !r.OK() {
			b.Fatal(err, r.Summary())
		}
	}
}

func BenchmarkGraphClone192(b *testing.B) {
	g, _ := merged192()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g.Clone().NumLinks() != g.NumLinks() {
			b.Fatal("clone lost links")
		}
	}
}

// TestResidualAllocs: a residual costs the rows it edits, not the
// topology. Cloning merged192 and occupying one unit along a pod's
// initial path allocates the clone's Graph value, its row table and
// borrowed bits, and one row per edited source node — in bytes, the
// table plus those rows. A clone copying every row reads about 14.4 kB
// and fails the byte bound.
func TestResidualAllocs(t *testing.T) {
	g, pods := merged192()
	path := pods[5].Init
	var rowBytes uint64
	for _, v := range path[:len(path)-1] {
		rowBytes += uint64(len(g.Out(v))) * uint64(unsafe.Sizeof(graph.Link{}))
	}
	residual := func() {
		r := g.Clone()
		for k := 1; k < len(path); k++ {
			if _, ok := r.Occupy(path[k-1], path[k], 1); !ok {
				t.Fatalf("no link %d->%d", path[k-1], path[k])
			}
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	residual()
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		residual()
	}
	runtime.ReadMemStats(&after)
	allocs := (after.Mallocs - before.Mallocs) / runs
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	n := uint64(g.NumNodes())
	tableBytes := n*uint64(unsafe.Sizeof([]graph.Link(nil))) + (n+63)/64*8
	if want := uint64(3 + len(path) - 1); allocs > want {
		t.Errorf("%d allocations per residual, want at most %d (Graph, table, bits, %d rows)", allocs, want, len(path)-1)
	}
	// Size classes round each allocation up by at most a quarter.
	if limit := (tableBytes + rowBytes + 128) * 5 / 4; bytes > limit {
		t.Errorf("%d bytes per residual, want at most %d (table %d B, rows %d B)", bytes, limit, tableBytes, rowBytes)
	}
	t.Logf("%d allocations, %d B per residual over %d edited rows", allocs, bytes, len(path)-1)
}

// BenchmarkScheduleSlack is the layer number for slack certification: one
// full validation plus the incremental per-switch walks, on the paper's
// running example, chronusd's own update, and the first feasible random
// instance at the benchmark's (n = 10) and the roadmap's (n = 24) size.
func BenchmarkScheduleSlack(b *testing.B) {
	firstFeasible := func(n int) *chronus.Instance {
		rng := rand.New(rand.NewSource(benchSeed))
		for {
			in := topo.RandomInstance(rng, topo.DefaultRandomParams(n))
			if _, err := core.Greedy(in, core.Options{Mode: core.ModeExact}); err == nil {
				return in
			}
		}
	}
	for _, c := range []struct {
		name string
		in   *chronus.Instance
	}{
		{"fig1", chronus.Fig1Example()},
		{"emulation", topo.EmulationTopo()},
		{"random10", firstFeasible(10)},
		{"random24", firstFeasible(24)},
	} {
		b.Run(c.name, func(b *testing.B) {
			res, err := core.Greedy(c.in, core.Options{Mode: core.ModeExact})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(core.ScheduleSlack(c.in, res.Schedule)) == 0 {
					b.Fatal("no slack entries")
				}
			}
		})
	}
}

func BenchmarkTreeFeasible(b *testing.B) {
	in := chronus.Fig1Example()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.TreeFeasible(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOrderReplacement(b *testing.B) {
	in := benchInstance(40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.ORGreedy(in); err != nil {
			b.Fatal(err)
		}
	}
}
