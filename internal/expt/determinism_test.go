package expt

import (
	"testing"
)

// The harness's core guarantee: for a fixed seed, every generator renders
// byte-identical tables and CSVs at any worker count. Wall-clock columns
// (Fig. 10 seconds, the acceptance-mode ablation's seconds) are the sole
// exemption; their deterministic companion columns are compared instead.

func determinismConfigs() (serial, parallel Config) {
	serial = Quick(11)
	serial.Procs = 1
	parallel = Quick(11)
	parallel.Procs = 8
	return serial, parallel
}

func assertSameTable(t *testing.T, name, serial, parallel string) {
	t.Helper()
	if serial != parallel {
		t.Errorf("%s diverged between -procs 1 and -procs 8:\n--- procs=1:\n%s\n--- procs=8:\n%s", name, serial, parallel)
	}
}

func TestEvaluateQualityDeterministicAcrossProcs(t *testing.T) {
	sc, pc := determinismConfigs()
	f7s, f8s, err := EvaluateQuality(sc)
	if err != nil {
		t.Fatal(err)
	}
	f7p, f8p, err := EvaluateQuality(pc)
	if err != nil {
		t.Fatal(err)
	}
	assertSameTable(t, "fig7 table", f7s.Table().String(), f7p.Table().String())
	assertSameTable(t, "fig7 csv", f7s.Table().CSV(), f7p.Table().CSV())
	assertSameTable(t, "fig8 table", f8s.Table().String(), f8p.Table().String())
	assertSameTable(t, "fig8 csv", f8s.Table().CSV(), f8p.Table().CSV())
}

func TestFig9DeterministicAcrossProcs(t *testing.T) {
	sc, pc := determinismConfigs()
	rs, err := Fig9RuleOverhead(sc)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := Fig9RuleOverhead(pc)
	if err != nil {
		t.Fatal(err)
	}
	assertSameTable(t, "fig9 table", rs.Table().String(), rp.Table().String())
	assertSameTable(t, "fig9 csv", rs.Table().CSV(), rp.Table().CSV())
}

func TestFig10DeterministicInstancePopulation(t *testing.T) {
	sc, pc := determinismConfigs()
	// One size and a tight budget keep the doubled (procs=1 and procs=8)
	// timing run cheap; the determinism property is scale-independent.
	for _, c := range []*Config{&sc, &pc} {
		c.BigSizes = []int{200}
		c.BigTimeoutSec = 1
	}
	rs, err := Fig10RunningTime(sc)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := Fig10RunningTime(pc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Points) != len(rp.Points) {
		t.Fatalf("points: %d vs %d", len(rs.Points), len(rp.Points))
	}
	for i := range rs.Points {
		s, p := rs.Points[i], rp.Points[i]
		// The measured seconds are wall-clock; the instance population,
		// the give-ups and the budget outcomes must match exactly.
		if s.N != p.N || s.ChronusInfeasible != p.ChronusInfeasible || s.ORBudget != p.ORBudget || s.OPTBudget != p.OPTBudget {
			t.Errorf("point %d diverged: procs=1 %+v, procs=8 %+v", i, s, p)
		}
	}
}

func TestFig11DeterministicAcrossProcs(t *testing.T) {
	sc, pc := determinismConfigs()
	rs, err := Fig11UpdateTimeCDF(sc)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := Fig11UpdateTimeCDF(pc)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Solved != rp.Solved || rs.Excluded != rp.Excluded || rs.OPTBudgetHits != rp.OPTBudgetHits {
		t.Errorf("counts diverged: procs=1 %d/%d/%d, procs=8 %d/%d/%d",
			rs.Solved, rs.Excluded, rs.OPTBudgetHits, rp.Solved, rp.Excluded, rp.OPTBudgetHits)
	}
	assertSameTable(t, "fig11 table", rs.Table().String(), rp.Table().String())
	assertSameTable(t, "fig11 csv", rs.Table().CSV(), rp.Table().CSV())
}

func TestFig6DeterministicAcrossProcs(t *testing.T) {
	sc, pc := determinismConfigs()
	rs, err := Fig6Bandwidth(sc)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := Fig6Bandwidth(pc)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Link != rp.Link {
		t.Errorf("monitored link diverged: %v vs %v", rs.Link, rp.Link)
	}
	assertSameTable(t, "fig6 series", rs.Table().String(), rp.Table().String())
	assertSameTable(t, "fig6 summary", rs.Summary().CSV(), rp.Summary().CSV())
}

func TestAblationsDeterministicAcrossProcs(t *testing.T) {
	sc, pc := determinismConfigs()

	css, err := AblationClockSkew(sc)
	if err != nil {
		t.Fatal(err)
	}
	csp, err := AblationClockSkew(pc)
	if err != nil {
		t.Fatal(err)
	}
	assertSameTable(t, "clock-skew table", ClockSkewTable(css).String(), ClockSkewTable(csp).String())

	ems, err := AblationExecutionMode(sc)
	if err != nil {
		t.Fatal(err)
	}
	emp, err := AblationExecutionMode(pc)
	if err != nil {
		t.Fatal(err)
	}
	assertSameTable(t, "exec-mode table", ExecModeTable(ems).String(), ExecModeTable(emp).String())

	ams, err := AblationAcceptanceMode(sc)
	if err != nil {
		t.Fatal(err)
	}
	amp, err := AblationAcceptanceMode(pc)
	if err != nil {
		t.Fatal(err)
	}
	// Blank the wall-clock columns, then the rendered rows must match.
	for i := range ams {
		ams[i].ExactSeconds, ams[i].FastSeconds = 0, 0
	}
	for i := range amp {
		amp[i].ExactSeconds, amp[i].FastSeconds = 0, 0
	}
	assertSameTable(t, "acceptance-mode table", ModeTable(ams).String(), ModeTable(amp).String())
}
