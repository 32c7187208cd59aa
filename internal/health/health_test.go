package health

import (
	"strings"
	"testing"

	"github.com/chronus-sdn/chronus/internal/obs"
)

func applyEvent(seq uint64, sw string, skew int64) obs.Event {
	return obs.Event{Seq: seq, Name: "sw.apply", Attrs: []obs.Attr{
		obs.A("switch", sw), obs.A("skew", skew),
	}}
}

func TestIdleVerdict(t *testing.T) {
	e := New(obs.NewRegistry())
	v := e.Verdict()
	if v.Level != "OK" {
		t.Fatalf("idle level = %s", v.Level)
	}
	if len(v.Reasons) != 1 || !strings.Contains(v.Reasons[0], "idle") {
		t.Fatalf("idle reasons = %v", v.Reasons)
	}
}

func TestInvalidPlanIsCritBeforeAnyEvent(t *testing.T) {
	// The oneshot case: a best-effort schedule the validator rejects
	// must be CRIT from SetPlan, before any switch applies anything —
	// strictly earlier than the auditor, which needs the full trace.
	e := New(obs.NewRegistry())
	e.SetPlan(Plan{Kind: "timed", Valid: false, Switches: []PlanSwitch{
		{Switch: "R1", SlackTicks: 0, Critical: true},
	}})
	v := e.Verdict()
	if v.Level != "CRIT" {
		t.Fatalf("invalid plan level = %s, want CRIT", v.Level)
	}
}

func TestMarginBurnAndCrit(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(reg)
	e.SetPlan(Plan{Kind: "timed", Valid: true, Switches: []PlanSwitch{
		{Switch: "R1", SlackTicks: 10},
		{Switch: "R2", SlackTicks: 4},
		{Switch: "R3", SlackTicks: 0, Critical: true},
	}})
	if v := e.Verdict(); v.Level != "OK" {
		t.Fatalf("fresh valid plan level = %s: %v", v.Level, v.Reasons)
	}

	// R1 burns 30%: still OK. Skew folds as worst |skew|.
	e.Observe([]obs.Event{applyEvent(1, "R1", -3)})
	v := e.Verdict()
	if v.Level != "OK" {
		t.Fatalf("30%% burn level = %s: %v", v.Level, v.Reasons)
	}
	if v.Switches[0].MarginTicks != 7 || v.Switches[0].BurnPct != 30 {
		t.Fatalf("R1 health = %+v", v.Switches[0])
	}

	// R2 burns 50%: WARN. The untouched critical switch R3 (slack 0,
	// margin 0) is still the worst margin.
	e.Observe([]obs.Event{applyEvent(2, "R2", 2)})
	v = e.Verdict()
	if v.Level != "WARN" {
		t.Fatalf("50%% burn level = %s: %v", v.Level, v.Reasons)
	}
	if v.WorstSwitch != "R3" || v.WorstMarginTicks != 0 {
		t.Fatalf("worst = %s/%d, want R3/0", v.WorstSwitch, v.WorstMarginTicks)
	}

	// The critical switch slips one tick: CRIT (margin -1).
	e.Observe([]obs.Event{applyEvent(3, "R3", 1)})
	v = e.Verdict()
	if v.Level != "CRIT" {
		t.Fatalf("critical slip level = %s: %v", v.Level, v.Reasons)
	}
	if v.WorstSwitch != "R3" || v.WorstMarginTicks != -1 {
		t.Fatalf("worst = %s/%d, want R3/-1", v.WorstSwitch, v.WorstMarginTicks)
	}
	if e.Cursor() != 3 {
		t.Fatalf("cursor = %d, want 3", e.Cursor())
	}

	// Gauges mirror the verdict.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`chronus_slack_margin_ticks{switch="R1"} 7`,
		`chronus_slack_margin_ticks{switch="R2"} 2`,
		`chronus_slack_margin_ticks{switch="R3"} -1`,
		"chronus_health_level 2",
		"chronus_health_worst_margin_ticks -1",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestWindowedSkewRecovers(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(reg)
	e.SetPlan(Plan{Kind: "timed", Valid: true, Switches: []PlanSwitch{
		{Switch: "R1", SlackTicks: 10},
	}})
	// One transient 6-tick spike: 60% burn, WARN.
	e.Observe([]obs.Event{applyEvent(1, "R1", 6)})
	v := e.Verdict()
	if v.Level != "WARN" {
		t.Fatalf("spike level = %s: %v", v.Level, v.Reasons)
	}
	if v.Switches[0].WorstSkewTicks != 6 || v.Switches[0].WorstEverSkewTicks != 6 {
		t.Fatalf("spike skews = %+v", v.Switches[0])
	}
	// SkewWindow clean applies push the spike out of the window: the
	// live margin recovers to OK while the all-time max stays visible.
	evs := make([]obs.Event, 0, SkewWindow)
	for i := 0; i < SkewWindow; i++ {
		evs = append(evs, applyEvent(uint64(2+i), "R1", 0))
	}
	e.Observe(evs)
	v = e.Verdict()
	if v.Level != "OK" {
		t.Fatalf("recovered level = %s: %v", v.Level, v.Reasons)
	}
	sh := v.Switches[0]
	if sh.WorstSkewTicks != 0 || sh.MarginTicks != 10 || sh.BurnPct != 0 {
		t.Fatalf("recovered health = %+v", sh)
	}
	if sh.WorstEverSkewTicks != 6 {
		t.Fatalf("all-time max lost: %+v", sh)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `chronus_slack_margin_ticks{switch="R1"} 10`+"\n") {
		t.Errorf("margin gauge did not recover:\n%s", b.String())
	}
}

func TestViolationDoesNotAgeOut(t *testing.T) {
	// A skew past the slack is a fact about this plan: CRIT must hold
	// even after the spike leaves the recovery window.
	e := New(nil)
	e.SetPlan(Plan{Kind: "timed", Valid: true, Switches: []PlanSwitch{
		{Switch: "R1", SlackTicks: 3},
	}})
	e.Observe([]obs.Event{applyEvent(1, "R1", 5)})
	evs := make([]obs.Event, 0, SkewWindow)
	for i := 0; i < SkewWindow; i++ {
		evs = append(evs, applyEvent(uint64(2+i), "R1", 0))
	}
	e.Observe(evs)
	v := e.Verdict()
	if v.Level != "CRIT" {
		t.Fatalf("aged-out violation level = %s: %v", v.Level, v.Reasons)
	}
	if v.Switches[0].WorstSkewTicks != 0 || v.Switches[0].WorstEverSkewTicks != 5 {
		t.Fatalf("skews = %+v", v.Switches[0])
	}
}

// stubClock is a canned ClockSource for forecast tests.
type stubClock struct {
	pred map[string]int64
	ttv  int64
}

func (s stubClock) PredictSkew(sw string, atTick int64) (int64, bool) {
	p, ok := s.pred[sw]
	return p, ok
}

func (s stubClock) TicksToViolation(sw string, slackTicks, fromTick int64) int64 {
	return s.ttv
}

func TestForecastWarnsBeforeLateApply(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(reg)
	// R1's clock is forecast to be 7.5 ticks off at its apply tick but
	// only has 5 ticks of slack: WARN with zero applies observed.
	e.SetClock(stubClock{pred: map[string]int64{"R1": 7500}, ttv: 42})
	e.SetPlan(Plan{Kind: "timed", Valid: true, StartTick: 100, Switches: []PlanSwitch{
		{Switch: "R1", SlackTicks: 5, ApplyTick: 400},
		{Switch: "R2", SlackTicks: 5, ApplyTick: 400}, // no estimate: no forecast
	}})
	v := e.Verdict()
	if v.Level != "WARN" {
		t.Fatalf("forecast level = %s: %v", v.Level, v.Reasons)
	}
	sh := v.Switches[0]
	if !sh.Forecast || sh.PredictedSkewMilliTicks != 7500 || sh.PredictedMarginMilliTicks != -2500 || sh.TTVTicks != 42 {
		t.Fatalf("forecast fields = %+v", sh)
	}
	if sh.Applies != 0 || sh.WorstSkewTicks != 0 {
		t.Fatalf("forecast must precede any observed apply: %+v", sh)
	}
	if v.Switches[1].Forecast {
		t.Fatalf("R2 has no estimate, forecast = %+v", v.Switches[1])
	}
	if v.PredictedWorstMarginMilliTicks != -2500 {
		t.Fatalf("predicted worst margin = %d, want -2500", v.PredictedWorstMarginMilliTicks)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "chronus_health_predicted_worst_margin_ticks -3\n") {
		t.Errorf("predicted gauge missing (-2500 mticks rounds to -3):\n%s", b.String())
	}

	// A healthy forecast stays OK and still reports the margin.
	e2 := New(nil)
	e2.SetClock(stubClock{pred: map[string]int64{"R1": 2000}, ttv: -1})
	e2.SetPlan(Plan{Kind: "timed", Valid: true, StartTick: 100, Switches: []PlanSwitch{
		{Switch: "R1", SlackTicks: 5, ApplyTick: 400},
	}})
	v2 := e2.Verdict()
	if v2.Level != "OK" {
		t.Fatalf("healthy forecast level = %s: %v", v2.Level, v2.Reasons)
	}
	if v2.PredictedWorstMarginMilliTicks != 3000 || v2.Switches[0].TTVTicks != -1 {
		t.Fatalf("healthy forecast = %+v", v2.Switches[0])
	}
}

func TestRoundsPlanWarnsAndDisconnectCrits(t *testing.T) {
	e := New(nil) // nil registry: engine still works
	e.SetPlan(Plan{Kind: "rounds", Valid: true})
	v := e.Verdict()
	if v.Level != "WARN" {
		t.Fatalf("rounds level = %s: %v", v.Level, v.Reasons)
	}
	e.Observe([]obs.Event{{Seq: 9, Name: "ctl.disconnect"}})
	v = e.Verdict()
	if v.Level != "CRIT" || v.Disconnects != 1 {
		t.Fatalf("disconnect level = %s, disconnects = %d", v.Level, v.Disconnects)
	}
	// A new plan clears the observations.
	e.SetPlan(Plan{Kind: "timed", Valid: true})
	if v := e.Verdict(); v.Level != "OK" {
		t.Fatalf("replan level = %s: %v", v.Level, v.Reasons)
	}
	if e.Cursor() != 9 {
		t.Fatalf("cursor reset by SetPlan: %d", e.Cursor())
	}
}

func TestNilEngine(t *testing.T) {
	var e *Engine
	e.SetPlan(Plan{})
	e.Observe(nil)
	if c := e.Cursor(); c != 0 {
		t.Fatalf("nil cursor = %d", c)
	}
	if v := e.Verdict(); v.Level != "OK" {
		t.Fatalf("nil verdict = %s", v.Level)
	}
}

// fakeQueue is a static QueueSource for the backpressure-rule tests.
type fakeQueue struct{ qs QueueStats }

func (f fakeQueue) QueueHealth() QueueStats { return f.qs }

func queueReasons(t *testing.T, qs QueueStats) (Verdict, string) {
	t.Helper()
	e := New(obs.NewRegistry())
	e.SetQueue(fakeQueue{qs})
	v := e.Verdict()
	return v, strings.Join(v.Reasons, "; ")
}

func TestQueueDepthWarns(t *testing.T) {
	// Below the threshold: queue stats attach, but the verdict stays OK.
	v, joined := queueReasons(t, QueueStats{Depth: 10, Cap: 100})
	if v.Level != "OK" || v.Queue == nil || v.Queue.Depth != 10 {
		t.Fatalf("shallow queue: level=%s queue=%+v (%s)", v.Level, v.Queue, joined)
	}
	// At 80% of capacity the backpressure rule fires even with no plan.
	v, joined = queueReasons(t, QueueStats{Depth: 80, Cap: 100})
	if v.Level != "WARN" || !strings.Contains(joined, "80% of capacity") {
		t.Fatalf("saturating queue: level=%s reasons=%s", v.Level, joined)
	}
}

func TestSustainedSaturationWarns(t *testing.T) {
	v, joined := queueReasons(t, QueueStats{Depth: 1, Cap: 100, SaturationStreak: SaturationStreakWarn - 1})
	if v.Level != "OK" {
		t.Fatalf("short streak: level=%s reasons=%s", v.Level, joined)
	}
	v, joined = queueReasons(t, QueueStats{Depth: 1, Cap: 100, SaturationStreak: SaturationStreakWarn})
	if v.Level != "WARN" || !strings.Contains(joined, "sustained admission saturation") {
		t.Fatalf("sustained streak: level=%s reasons=%s", v.Level, joined)
	}
}

func TestOldestWaitWarns(t *testing.T) {
	v, joined := queueReasons(t, QueueStats{Depth: 1, Cap: 100, OldestWaitTicks: QueueWaitWarnTicks + 1})
	if v.Level != "WARN" || !strings.Contains(joined, "oldest queued update") {
		t.Fatalf("stale queue head: level=%s reasons=%s", v.Level, joined)
	}
}

func TestTenantPreemptionSurfaces(t *testing.T) {
	// Preemption is the queue working, not a rule: the per-tenant counts
	// surface in the verdict's queue stats, and no reason line and no
	// level change comes of them.
	v, joined := queueReasons(t, QueueStats{Depth: 1, Cap: 100, Tenants: []TenantQueue{
		{Tenant: "bulk", Submitted: 9, Preempted: 2},
		{Tenant: "urgent", Submitted: 3},
	}})
	if v.Level != "OK" || joined != "OK: idle (no update planned yet)" {
		t.Fatalf("preemption reached the rules: level=%s reasons=%s", v.Level, joined)
	}
	if len(v.Queue.Tenants) != 2 || v.Queue.Tenants[0].Preempted != 2 {
		t.Fatalf("preemption counts missing from the queue stats: %+v", v.Queue.Tenants)
	}
}

type fakeDrift struct{ ds DriftStats }

func (f fakeDrift) DriftHealth() DriftStats { return f.ds }

func driftReasons(t *testing.T, ds DriftStats) (Verdict, string) {
	t.Helper()
	e := New(obs.NewRegistry())
	e.SetDrift(fakeDrift{ds})
	v := e.Verdict()
	return v, strings.Join(v.Reasons, "; ")
}

func TestDriftStrandedIsCrit(t *testing.T) {
	// Converging within slack: stats attach, verdict stays OK.
	v, joined := driftReasons(t, DriftStats{Tracked: 1, Converging: 1, Updates: []DriftUpdate{
		{Update: "1/1", Status: "converging", AgeTicks: 0, SlackTicks: 20},
	}})
	if v.Level != "OK" || v.Drift == nil || v.Drift.Converging != 1 {
		t.Fatalf("converging: level=%s drift=%+v (%s)", v.Level, v.Drift, joined)
	}

	// A stranded update is CRIT even with no plan armed: the drift rules
	// judge dead runs, which by definition have no live plan.
	v, joined = driftReasons(t, DriftStats{Tracked: 1, Stranded: 1, Updates: []DriftUpdate{
		{Update: "1/1", Status: "stranded", AgeTicks: 300, SlackTicks: 20},
	}})
	if v.Level != "CRIT" || !strings.Contains(joined, "stranded mid-schedule") {
		t.Fatalf("stranded: level=%s reasons=%s", v.Level, joined)
	}
}

func TestDriftAgePastSlackWarns(t *testing.T) {
	// Age within the schedule's slack: no rule fires.
	v, joined := driftReasons(t, DriftStats{Tracked: 1, Converging: 1, Updates: []DriftUpdate{
		{Update: "1/2", Status: "converging", AgeTicks: 19, SlackTicks: 20},
	}})
	if v.Level != "OK" {
		t.Fatalf("within slack: level=%s reasons=%s", v.Level, joined)
	}
	// Past the slack: WARN naming the update.
	v, joined = driftReasons(t, DriftStats{Tracked: 1, Diverged: 1, Updates: []DriftUpdate{
		{Update: "1/2", Status: "diverged", AgeTicks: 21, SlackTicks: 20},
	}})
	if v.Level != "WARN" || !strings.Contains(joined, "update 1/2 drifting 21 ticks past its 20-tick slack") {
		t.Fatalf("past slack: level=%s reasons=%s", v.Level, joined)
	}
}
