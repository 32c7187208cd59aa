package expt

import (
	"errors"
	"strings"
	"testing"

	"github.com/chronus-sdn/chronus/internal/scheme"
	"github.com/chronus-sdn/chronus/internal/topo"
)

// The experiment tests assert the qualitative shapes the paper reports, at
// Quick scale: who wins, roughly by how much, and that every table renders.

func TestFig6Shapes(t *testing.T) {
	cfg := Quick(1)
	res, err := Fig6Bandwidth(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("series = %d, want 3", len(res.Series))
	}
	byName := map[string]Fig6Series{}
	for _, s := range res.Series {
		byName[s.Scheme] = s
	}
	// Chronus and TP stay within capacity; OR exceeds it (the paper's
	// ~600 Mbps spike on a 500 Mbps link).
	if byName["chronus"].OverloadTicks != 0 || byName["chronus"].Drops != 0 {
		t.Fatalf("chronus violated: %+v", byName["chronus"])
	}
	if byName["tp"].OverloadTicks != 0 || byName["tp"].Drops != 0 {
		t.Fatalf("tp violated: %+v", byName["tp"])
	}
	if byName["or"].OverloadTicks == 0 {
		t.Fatal("or run showed no overload; the figure would be vacuous")
	}
	if byName["or"].Peak <= float64(topo.EmulationCapacityMbps) {
		t.Fatalf("or peak %.1f did not exceed capacity on the monitored link %v", byName["or"].Peak, res.Link)
	}
	if got := res.Table().String(); !strings.Contains(got, "chronus_mbps") {
		t.Fatalf("table missing columns:\n%s", got)
	}
	if got := res.Summary().CSV(); !strings.Contains(got, "or,") {
		t.Fatalf("summary CSV malformed:\n%s", got)
	}
}

func TestQualityShapes(t *testing.T) {
	cfg := Quick(2)
	f7, f8, err := EvaluateQuality(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(f7.Chronus) != len(cfg.Sizes) {
		t.Fatalf("points = %d", len(f7.Chronus))
	}
	for i := range cfg.Sizes {
		c, o := f7.Chronus[i], f7.OR[i]
		// Chronus is congestion-free far more often than OR at every size.
		if c.CongestionFreePct <= o.CongestionFreePct {
			t.Fatalf("size %d: chronus %.1f%% <= or %.1f%%", c.N, c.CongestionFreePct, o.CongestionFreePct)
		}
		// Fig. 8: Chronus congests far fewer time-extended links.
		if f8.Chronus[i].MeanCongestedLinks >= f8.OR[i].MeanCongestedLinks {
			t.Fatalf("size %d: chronus links %.2f >= or %.2f", c.N,
				f8.Chronus[i].MeanCongestedLinks, f8.OR[i].MeanCongestedLinks)
		}
	}
	// At the largest size, Chronus stays in the paper's band (>50%
	// congestion-free) while OR collapses (<20%).
	last := len(cfg.Sizes) - 1
	if f7.Chronus[last].CongestionFreePct < 50 {
		t.Fatalf("chronus at n=%d only %.1f%% congestion-free", cfg.Sizes[last], f7.Chronus[last].CongestionFreePct)
	}
	if f7.OR[last].CongestionFreePct > 20 {
		t.Fatalf("or at n=%d unexpectedly high: %.1f%%", cfg.Sizes[last], f7.OR[last].CongestionFreePct)
	}
	if f7.Table().String() == "" || f8.Table().String() == "" {
		t.Fatal("empty tables")
	}
	// The runtime-audit cross-check: sampled executions exist at every
	// size, and the trace auditor's verdict always matches the analytic
	// validator's (clean Chronus schedules audit clean, flagged one-shots
	// audit flagged).
	if len(f7.Audit) != len(cfg.Sizes) {
		t.Fatalf("audit points = %d, want %d", len(f7.Audit), len(cfg.Sizes))
	}
	for _, p := range f7.Audit {
		if p.Checks == 0 {
			t.Fatalf("size %d: no audited executions", p.N)
		}
		if p.Agree != p.Checks {
			t.Fatalf("size %d: auditor and validator disagree on %d of %d executions",
				p.N, p.Checks-p.Agree, p.Checks)
		}
	}
	if h := f7.Table().Header; h[len(h)-2] != "audit_checks" || h[len(h)-1] != "audit_agree" {
		t.Fatalf("fig7 header missing audit columns: %v", h)
	}
}

func TestFig9Shapes(t *testing.T) {
	cfg := Quick(3)
	res, err := Fig9RuleOverhead(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		// The paper reports over 60% rule savings versus two-phase.
		if p.SavingsPct < 55 {
			t.Fatalf("n=%d: savings %.1f%% below 55%%", p.N, p.SavingsPct)
		}
		if p.Chronus.Max <= p.Chronus.Min {
			t.Fatalf("n=%d: degenerate box plot %+v", p.N, p.Chronus)
		}
		if p.TPMean <= p.Chronus.Mean {
			t.Fatalf("n=%d: TP cheaper than chronus", p.N)
		}
	}
	// TP grows faster than Chronus with size.
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if last.TPMean-first.TPMean <= last.Chronus.Mean-first.Chronus.Mean {
		t.Fatal("TP did not grow faster than Chronus")
	}
}

func TestFig10Shapes(t *testing.T) {
	cfg := Quick(4)
	res, err := Fig10RunningTime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := scheme.Lookup("chronus-fast")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		// The exact searches burn their budgets.
		if p.OPTBudget == 0 {
			t.Fatalf("n=%d: OPT never hit its budget", p.N)
		}
		if p.Chronus <= 0 {
			t.Fatalf("n=%d: chronus time not measured", p.N)
		}
		// The give-up column counts what a fresh solve of the same
		// instances gives up on.
		gaveUp := 0
		for k := 0; k < cfg.BigInstances; k++ {
			ctx := newInstCtx(rngFor(cfg, "fig10", int64(p.N)*100+int64(k)), bigParams(p.N))
			if _, err := fast.Solve(ctx.in, scheme.Options{}); errors.Is(err, scheme.ErrInfeasible) {
				gaveUp++
			} else if err != nil {
				t.Fatal(err)
			}
		}
		if p.ChronusInfeasible != gaveUp {
			t.Fatalf("n=%d: chronus_infeasible = %d, a recount gives %d", p.N, p.ChronusInfeasible, gaveUp)
		}
	}
	if res.Table().String() == "" {
		t.Fatal("empty table")
	}
}

func TestFig11Shapes(t *testing.T) {
	cfg := Quick(5)
	res, err := Fig11UpdateTimeCDF(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Solved == 0 {
		t.Fatal("no instances solved")
	}
	// OPT's median update time never exceeds Chronus's (it is optimal or a
	// better-seeded incumbent).
	if res.OPT.Inverse(0.5) > res.Chronus.Inverse(0.5) {
		t.Fatalf("OPT median %.1f > chronus median %.1f", res.OPT.Inverse(0.5), res.Chronus.Inverse(0.5))
	}
	// Near-optimality: chronus's 90th percentile stays within 2x OPT's.
	if res.Chronus.Inverse(0.9) > 2*res.OPT.Inverse(0.9)+4 {
		t.Fatalf("chronus p90 %.1f far beyond OPT p90 %.1f", res.Chronus.Inverse(0.9), res.OPT.Inverse(0.9))
	}
	if res.Table().String() == "" {
		t.Fatal("empty table")
	}
}

func TestTable2(t *testing.T) {
	cfg := Quick(6)
	res, err := Table2FlowTables(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := res.Source.String()
	dst := res.Dest.String()
	if !strings.Contains(src, "10.0.1.0/24") || !strings.Contains(src, "output:") {
		t.Fatalf("source table:\n%s", src)
	}
	if !strings.Contains(dst, "output:host") {
		t.Fatalf("dest table must deliver to hosts:\n%s", dst)
	}
}

func TestAblationClockSkewShape(t *testing.T) {
	cfg := Quick(7)
	points, err := AblationClockSkew(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if points[0].SyncErrorNs != 0 || points[0].Violated != 0 {
		t.Fatalf("perfect clocks violated: %+v", points[0])
	}
	// Microsecond-accurate clocks (the paper's premise) stay safe.
	if points[1].SyncErrorNs != 1000 || points[1].Violated != 0 {
		t.Fatalf("1µs clocks violated: %+v", points[1])
	}
	// Some sufficiently coarse level must violate, otherwise the premise
	// would be untestable.
	worst := points[len(points)-1]
	if worst.Violated == 0 {
		t.Fatalf("even %dns sync error never violated", worst.SyncErrorNs)
	}
	if ClockSkewTable(points).String() == "" {
		t.Fatal("empty table")
	}
}

func TestAblationAcceptanceModeShape(t *testing.T) {
	cfg := Quick(8)
	cfg.Sizes = []int{10, 20}
	cfg.InstancesPerRun = 10
	points, err := AblationAcceptanceMode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if p.ExactSolved == 0 || p.FastSolved == 0 {
			t.Fatalf("n=%d: nothing solved: %+v", p.N, p)
		}
	}
	if ModeTable(points).String() == "" {
		t.Fatal("empty table")
	}
}

func TestAblationExecutionModeShape(t *testing.T) {
	cfg := Quick(9)
	points, err := AblationExecutionMode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	timed, paced := points[0], points[1]
	if timed.Scheme != "timed" || paced.Scheme != "barrier-paced" {
		t.Fatalf("unexpected order: %+v", points)
	}
	// The timed execution never violates (it realizes the proven schedule).
	if timed.OverloadTicks != 0 || timed.Drops != 0 {
		t.Fatalf("timed execution violated: %+v", timed)
	}
	if ExecModeTable(points).String() == "" {
		t.Fatal("empty table")
	}
}
