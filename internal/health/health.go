// Package health is the live SLO layer over Chronus updates: it folds
// the scheduling tolerance a plan *promises* (per-switch slack from
// core.ScheduleSlack) against the timing error the execution *shows*
// (per-switch fire skew from the trace stream) into margins, burn
// rates and a single OK/WARN/CRIT verdict.
//
// The engine is deliberately more nervous than the auditor: the
// auditor flags an update after a violation is provable from the full
// trace, while the health rules degrade as soon as the margin shrinks
// — an invalid plan is CRIT before its first FlowMod is sent, a
// critical-path switch firing late is CRIT at the apply event, and
// half the slack consumed is already WARN.
//
// With a ClockSource attached (internal/clock), the engine goes one
// step earlier still: it extrapolates each switch's estimated clock
// offset and drift to that switch's scheduled apply tick and degrades
// to WARN when the *predicted* skew already exceeds the slack — before
// the first late apply, not after.
package health

import (
	"fmt"
	"sort"
	"sync"

	"github.com/chronus-sdn/chronus/internal/obs"
)

// Level is the overall health verdict, ordered by severity.
type Level int

// Severity order matters: rules compute the max.
const (
	OK Level = iota
	Warn
	Crit
)

// String renders the level the way /health and the dashboard show it.
func (l Level) String() string {
	switch l {
	case Warn:
		return "WARN"
	case Crit:
		return "CRIT"
	default:
		return "OK"
	}
}

// warnBurnPct is the fraction of a switch's slack that may be consumed
// by observed skew before the engine degrades to WARN.
const warnBurnPct = 50

// SkewWindow is how many recent applies the windowed worst-skew view
// spans. A transient spike ages out of margins and burn after this many
// clean applies; the all-time maximum stays visible separately.
const SkewWindow = 8

// Backpressure thresholds for the admission-queue rules.
const (
	// QueueWarnPct is the queue-depth percentage at which the engine
	// degrades to WARN.
	QueueWarnPct = 80
	// SaturationStreakWarn is how many consecutive submissions may be
	// refused or preempted at a full queue before saturation is judged
	// sustained (WARN).
	SaturationStreakWarn = 3
	// QueueWaitWarnTicks is the oldest-queued-update age (virtual
	// ticks) past which the engine degrades to WARN.
	QueueWaitWarnTicks = 1000
)

// TenantQueue is one tenant's admission accounting as the health rules
// see it: how much it submits, how often it is refused, and the
// priority/preemption picture (whether its updates evict others or are
// evicted themselves).
type TenantQueue struct {
	Tenant      string `json:"tenant"`
	Submitted   int64  `json:"submitted"`
	Refused     int64  `json:"refused,omitempty"`
	Preempted   int64  `json:"preempted,omitempty"`
	MaxPriority int    `json:"max_priority,omitempty"`
}

// QueueStats is the admission-queue surface the backpressure rules
// judge (implemented by internal/admit via a daemon-side adapter).
type QueueStats struct {
	// Depth and Cap are the current and maximum queue occupancy.
	Depth int `json:"depth"`
	Cap   int `json:"cap"`
	// OldestWaitTicks is the virtual-time age of the oldest queued
	// update.
	OldestWaitTicks int64 `json:"oldest_wait_ticks"`
	// SaturationStreak counts consecutive submissions refused or
	// preempted against a full queue; any successful enqueue with room
	// resets it.
	SaturationStreak int `json:"saturation_streak"`
	// Tenants is the per-tenant accounting, ascending by name.
	Tenants []TenantQueue `json:"tenants,omitempty"`
}

// QueueSource supplies live admission-queue stats.
type QueueSource interface {
	QueueHealth() QueueStats
}

// DriftUpdate is one not-yet-converged update as the drift rules judge
// it: its observed-state status (converging / stranded / diverged), how
// long it has lagged its intent, and the slack its schedule promised.
type DriftUpdate struct {
	// Update identifies the update across daemon runs ("run/id").
	Update string `json:"update"`
	Status string `json:"status"`
	// AgeTicks is how long the observed state has lagged the planned
	// end-state (cumulative virtual ticks across restarts).
	AgeTicks int64 `json:"age_ticks"`
	// SlackTicks is the schedule's tightest per-switch slack — the
	// tolerance the drift age is judged against.
	SlackTicks int64 `json:"slack_ticks"`
}

// DriftStats is the desired-vs-observed surface the drift rules judge
// (implemented by internal/state via a daemon-side adapter). Updates
// lists only the not-yet-converged executions; converged and plan-only
// updates carry no drift.
type DriftStats struct {
	Tracked       int           `json:"tracked"`
	Stranded      int           `json:"stranded"`
	Diverged      int           `json:"diverged"`
	Converging    int           `json:"converging"`
	WorstAgeTicks int64         `json:"worst_age_ticks"`
	Updates       []DriftUpdate `json:"updates,omitempty"`
}

// DriftSource supplies live desired-vs-observed drift stats.
type DriftSource interface {
	DriftHealth() DriftStats
}

// ClockSource supplies predictive clock-quality estimates (implemented
// by internal/clock's Estimator). Skews and margins are in milliticks.
type ClockSource interface {
	// PredictSkew bounds |skew| expected at atTick; ok is false when no
	// estimate exists for the switch yet.
	PredictSkew(sw string, atTick int64) (milliTicks int64, ok bool)
	// TicksToViolation forecasts how many ticks after fromTick the
	// predicted skew crosses slackTicks: 0 = already past, -1 = never.
	TicksToViolation(sw string, slackTicks, fromTick int64) int64
}

// PlanSwitch is one switch's promise in a plan: its scheduled slack.
type PlanSwitch struct {
	Switch string `json:"switch"`
	// SlackTicks is how many ticks this switch's activation may slip
	// before the validator reports a violation.
	SlackTicks int64 `json:"slack_ticks"`
	// ApplyTick is the reference tick the switch is scheduled to fire
	// at (0 when unknown); the forecast extrapolates clock error there.
	ApplyTick int64 `json:"apply_tick,omitempty"`
	// Critical marks zero-slack switches (any slip breaks the update).
	Critical bool `json:"critical"`
}

// Plan is what the engine holds an execution accountable to.
type Plan struct {
	// Kind is the execution strategy: "timed", "rounds" or "twophase".
	// Only timed plans carry slack promises; "rounds" runs without any
	// timing guarantee and is WARN by rule.
	Kind string `json:"kind"`
	// Valid is the validator's verdict on the planned schedule; a plan
	// known to violate (e.g. a best-effort oneshot) is CRIT from the
	// moment it is set, before any switch applies anything.
	Valid bool `json:"valid"`
	// Switches lists the per-switch promises of a timed plan.
	Switches []PlanSwitch `json:"switches,omitempty"`
	// StartTick is the reference tick the plan was armed at; forecasts
	// count time-to-violation from here.
	StartTick int64 `json:"start_tick,omitempty"`
}

// SwitchHealth is the live margin of one switch.
type SwitchHealth struct {
	Switch string `json:"switch"`
	// SlackTicks is the plan's promise.
	SlackTicks int64 `json:"slack_ticks"`
	// WorstSkewTicks is the largest absolute fire skew within the last
	// SkewWindow applies — a spike ages out once clean fires follow it.
	WorstSkewTicks int64 `json:"worst_skew_ticks"`
	// WorstEverSkewTicks is the all-time maximum for this plan; it never
	// decays and is what the margin-violation (CRIT) rule judges.
	WorstEverSkewTicks int64 `json:"worst_skew_ever_ticks"`
	// MarginTicks is SlackTicks - WorstSkewTicks; negative means the
	// validator's tolerance is provably exceeded.
	MarginTicks int64 `json:"margin_ticks"`
	// BurnPct is the percentage of slack consumed (100 when a critical
	// switch has slipped at all).
	BurnPct int64 `json:"burn_pct"`
	// Critical marks plan-critical switches.
	Critical bool `json:"critical"`
	// Applies counts observed rule applications on this switch.
	Applies int64 `json:"applies"`
	// ApplyTick echoes the plan's scheduled fire tick (0 when unknown).
	ApplyTick int64 `json:"apply_tick,omitempty"`
	// Forecast marks that a clock estimate existed for this switch and
	// the predictive fields below are meaningful.
	Forecast bool `json:"forecast,omitempty"`
	// PredictedSkewMilliTicks bounds |skew| the clock estimator expects
	// at ApplyTick (milliticks).
	PredictedSkewMilliTicks int64 `json:"predicted_skew_mticks,omitempty"`
	// PredictedMarginMilliTicks is SlackTicks*1000 minus the predicted
	// skew; negative forecasts a violation before it is observed.
	PredictedMarginMilliTicks int64 `json:"predicted_margin_mticks,omitempty"`
	// TTVTicks is the forecast time-to-violation counted from the
	// plan's StartTick: 0 = already past the slack, -1 = never.
	TTVTicks int64 `json:"ttv_ticks,omitempty"`
}

// Verdict is the machine-readable /health payload.
type Verdict struct {
	Level string `json:"level"`
	// Reasons lists every rule that fired, most severe first.
	Reasons []string `json:"reasons"`
	// Plan echoes what the engine is judging against; nil when idle.
	Plan *Plan `json:"plan,omitempty"`
	// WorstSwitch is the switch with the smallest margin ("" when no
	// timed plan is active) — the live analogue of the audit package's
	// gating switch.
	WorstSwitch      string `json:"worst_switch,omitempty"`
	WorstMarginTicks int64  `json:"worst_margin_ticks"`
	// PredictedWorstMarginMilliTicks is the smallest forecast margin
	// across switches with clock estimates (milliticks); only set when
	// a ClockSource is attached and at least one forecast exists.
	PredictedWorstMarginMilliTicks int64 `json:"predicted_worst_margin_mticks,omitempty"`
	// Switches reports per-switch margins, ascending by name.
	Switches []SwitchHealth `json:"switches,omitempty"`
	// Disconnects counts control sessions lost since the plan was set.
	Disconnects int64 `json:"disconnects"`
	// Queue reports the admission pipeline the backpressure rules
	// judged; nil when no QueueSource is attached.
	Queue *QueueStats `json:"queue,omitempty"`
	// Drift reports the desired-vs-observed state the drift rules
	// judged; nil when no DriftSource is attached.
	Drift *DriftStats `json:"drift,omitempty"`
}

// Engine folds trace events into live margins. All methods are safe
// for concurrent use; a nil engine is a no-op observer.
type Engine struct {
	mu          sync.Mutex
	reg         *obs.Registry
	clock       ClockSource
	queue       QueueSource
	drift       DriftSource
	plan        *Plan
	slack       map[string]planSwitch
	skews       map[string][]int64 // last SkewWindow absolute skews
	skewEver    map[string]int64   // all-time max for this plan
	applies     map[string]int64
	disconnects int64
	cursor      uint64
}

// planSwitch is one switch's promise in the armed plan, with the gauge
// that mirrors its margin.
type planSwitch struct {
	PlanSwitch
	margin *obs.Gauge
}

// New builds an engine exporting its gauges on reg (nil disables the
// metric mirror but not the engine).
func New(reg *obs.Registry) *Engine {
	reg.Help("chronus_slack_margin_ticks", "Per-switch remaining scheduling tolerance: planned slack minus worst observed fire skew.")
	reg.Help("chronus_health_level", "Overall health verdict: 0 OK, 1 WARN, 2 CRIT.")
	reg.Help("chronus_health_worst_margin_ticks", "Smallest per-switch slack margin (the live gating switch).")
	reg.Help("chronus_health_predicted_worst_margin_ticks", "Smallest forecast slack margin from the clock estimator, extrapolated to each switch's scheduled apply tick.")
	return &Engine{
		reg:      reg,
		slack:    map[string]planSwitch{},
		skews:    map[string][]int64{},
		skewEver: map[string]int64{},
		applies:  map[string]int64{},
	}
}

// SetClock attaches the clock-quality estimator the predictive rules
// read from. Safe to leave unset: the engine then judges observed skew
// only, as before.
func (e *Engine) SetClock(c ClockSource) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.clock = c
}

// SetQueue attaches the admission-queue source the backpressure rules
// read from. Safe to leave unset: the engine then judges execution
// margins only, as before.
func (e *Engine) SetQueue(q QueueSource) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.queue = q
}

// SetDrift attaches the observed-state store the drift rules read
// from. Safe to leave unset: the engine then judges queue and execution
// margins only, as before.
func (e *Engine) SetDrift(d DriftSource) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.drift = d
}

// SetPlan arms the engine with a new plan and clears the observations
// of the previous one (the margins of a finished update stay readable
// until the next plan arrives).
func (e *Engine) SetPlan(p Plan) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.plan = &p
	e.slack = make(map[string]planSwitch, len(p.Switches))
	e.skews = map[string][]int64{}
	e.skewEver = map[string]int64{}
	e.applies = map[string]int64{}
	e.disconnects = 0
	for _, s := range p.Switches {
		g := e.reg.Gauge(fmt.Sprintf("chronus_slack_margin_ticks{switch=%q}", s.Switch))
		g.Set(s.SlackTicks)
		e.slack[s.Switch] = planSwitch{PlanSwitch: s, margin: g}
	}
}

// Cursor returns the trace sequence number up to which events have
// been folded; feed Observe the events after it.
func (e *Engine) Cursor() uint64 {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cursor
}

// Observe folds a batch of trace events (the page after
// engine.Cursor()) into the margins. It consumes
// sw.apply fire skews and ctl.disconnect events; everything else only
// moves the cursor.
func (e *Engine) Observe(events []obs.Event) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range events {
		ev := &events[i]
		if ev.Seq > e.cursor {
			e.cursor = ev.Seq
		}
		switch ev.Name {
		case obs.EvSwApply:
			sw := ev.Attr(obs.KeySwitch)
			if sw == "" {
				continue
			}
			skew := ev.AttrInt(obs.KeySkew)
			if skew < 0 {
				skew = -skew
			}
			e.applies[sw]++
			ring := append(e.skews[sw], skew)
			if len(ring) > SkewWindow {
				ring = ring[len(ring)-SkewWindow:]
			}
			e.skews[sw] = ring
			if skew > e.skewEver[sw] {
				e.skewEver[sw] = skew
			}
			if p, ok := e.slack[sw]; ok {
				p.margin.Set(p.SlackTicks - e.windowedSkew(sw))
			}
		case obs.EvCtlDisconnect:
			e.disconnects++
		}
	}
}

// windowedSkew returns the worst absolute skew within the last
// SkewWindow applies of sw. Callers hold e.mu.
func (e *Engine) windowedSkew(sw string) int64 {
	var worst int64
	for _, s := range e.skews[sw] {
		if s > worst {
			worst = s
		}
	}
	return worst
}

// Verdict evaluates the rules table and mirrors the summary gauges.
// The rules, in severity order:
//
//	CRIT  plan known invalid (validator violations at plan time)
//	CRIT  control session lost during the update
//	CRIT  all-time margin < 0 on any switch (skew provably past the
//	      tolerance at some point of this plan — the violation is a
//	      fact and does not age out; a critical switch slipping at all
//	      is this rule with slack 0)
//	WARN  plan executes without timing guarantees (kind "rounds")
//	WARN  clock forecast predicts skew past the slack at a switch's
//	      scheduled apply tick (fires before the first late apply)
//	WARN  burn >= 50% of slack on any switch, judged on the windowed
//	      worst skew so a transient spike recovers
//	WARN  admission queue at >= 80% of capacity (backpressure close)
//	WARN  sustained admission saturation: >= 3 consecutive submissions
//	      refused or preempted against a full queue
//	WARN  oldest queued update waiting > 1000 virtual ticks
//	CRIT  an update is stranded mid-schedule (half-executed with no
//	      applies pending — the observed-state store's restart-recovery
//	      signal)
//	WARN  an update's drift age exceeds its schedule slack (the
//	      observed state is lagging the planner's intent longer than
//	      the plan tolerated)
//	OK    otherwise (per-tenant preemption counts are in the queue
//	      stats; preemption is the queue working, not a rule)
//
// Queue and drift rules are independent of the plan: a saturated
// admission queue or a stranded past update degrades an otherwise idle
// daemon too.
func (e *Engine) Verdict() Verdict {
	if e == nil {
		return Verdict{Level: OK.String()}
	}
	e.mu.Lock()
	defer e.mu.Unlock()

	v := Verdict{Disconnects: e.disconnects}
	level := OK
	raise := func(l Level, reason string) {
		if l > level {
			level = l
		}
		v.Reasons = append(v.Reasons, fmt.Sprintf("%s: %s", l, reason))
	}

	if e.queue != nil {
		qs := e.queue.QueueHealth()
		v.Queue = &qs
		if qs.Cap > 0 && qs.Depth*100 >= qs.Cap*QueueWarnPct {
			raise(Warn, fmt.Sprintf("admission queue at %d%% of capacity (%d/%d)",
				100*qs.Depth/qs.Cap, qs.Depth, qs.Cap))
		}
		if qs.SaturationStreak >= SaturationStreakWarn {
			raise(Warn, fmt.Sprintf("sustained admission saturation: %d consecutive submissions refused or preempted at a full queue", qs.SaturationStreak))
		}
		if qs.OldestWaitTicks > QueueWaitWarnTicks {
			raise(Warn, fmt.Sprintf("oldest queued update waiting %d ticks (threshold %d)",
				qs.OldestWaitTicks, QueueWaitWarnTicks))
		}
	}

	if e.drift != nil {
		ds := e.drift.DriftHealth()
		v.Drift = &ds
		if ds.Stranded > 0 {
			raise(Crit, fmt.Sprintf("%d update(s) stranded mid-schedule (half-executed, no applies pending)", ds.Stranded))
		}
		for _, u := range ds.Updates {
			if u.Status != "stranded" && u.AgeTicks > u.SlackTicks {
				raise(Warn, fmt.Sprintf("update %s drifting %d ticks past its %d-tick slack (%s)",
					u.Update, u.AgeTicks, u.SlackTicks, u.Status))
			}
		}
	}

	if e.plan == nil {
		if len(v.Reasons) == 0 {
			v.Reasons = []string{"OK: idle (no update planned yet)"}
		}
		v.Level = level.String()
		e.setSummaryGauges(level, 0)
		return v
	}
	plan := *e.plan
	v.Plan = &plan

	if !plan.Valid {
		raise(Crit, "planned schedule violates the validator (best-effort execution)")
	}
	if e.disconnects > 0 {
		raise(Crit, fmt.Sprintf("%d control session(s) lost during the update", e.disconnects))
	}
	if plan.Kind == "rounds" {
		raise(Warn, "barrier-paced execution carries no timed-slack guarantee")
	}

	names := make([]string, 0, len(e.slack))
	for name := range e.slack {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) > 0 {
		v.Switches = make([]SwitchHealth, 0, len(names))
	}
	worstMargin := int64(0)
	predWorst, anyForecast := int64(0), false
	first := true
	for _, name := range names {
		p := e.slack[name]
		skew := e.windowedSkew(name)
		ever := e.skewEver[name]
		margin := p.SlackTicks - skew
		burn := int64(0)
		if p.SlackTicks > 0 {
			burn = 100 * skew / p.SlackTicks
		} else if skew > 0 {
			burn = 100
		}
		sh := SwitchHealth{
			Switch:             name,
			SlackTicks:         p.SlackTicks,
			WorstSkewTicks:     skew,
			WorstEverSkewTicks: ever,
			MarginTicks:        margin,
			BurnPct:            burn,
			Critical:           p.Critical,
			Applies:            e.applies[name],
			ApplyTick:          p.ApplyTick,
		}
		if e.clock != nil && p.ApplyTick > 0 {
			if pred, ok := e.clock.PredictSkew(name, p.ApplyTick); ok {
				sh.Forecast = true
				sh.PredictedSkewMilliTicks = pred
				sh.PredictedMarginMilliTicks = p.SlackTicks*1000 - pred
				sh.TTVTicks = e.clock.TicksToViolation(name, p.SlackTicks, plan.StartTick)
				if !anyForecast || sh.PredictedMarginMilliTicks < predWorst {
					predWorst = sh.PredictedMarginMilliTicks
					anyForecast = true
				}
				if sh.PredictedMarginMilliTicks < 0 {
					raise(Warn, fmt.Sprintf("switch %s forecast to skew %d mticks at tick %d, past its %d-tick slack (ttv %d)",
						name, pred, p.ApplyTick, p.SlackTicks, sh.TTVTicks))
				}
			}
		}
		v.Switches = append(v.Switches, sh)
		if first || margin < worstMargin {
			worstMargin = margin
			v.WorstSwitch = name
			first = false
		}
		if p.SlackTicks-ever < 0 {
			raise(Crit, fmt.Sprintf("switch %s skewed %d ticks past its %d-tick slack", name, ever, p.SlackTicks))
		} else if burn >= warnBurnPct {
			raise(Warn, fmt.Sprintf("switch %s burned %d%% of its slack", name, burn))
		}
	}
	v.WorstMarginTicks = worstMargin
	if anyForecast {
		v.PredictedWorstMarginMilliTicks = predWorst
	}

	if len(v.Reasons) == 0 {
		raise(OK, "all margins inside slack")
	}
	v.Level = level.String()
	e.setSummaryGauges(level, worstMargin)
	if anyForecast {
		e.reg.Gauge("chronus_health_predicted_worst_margin_ticks").Set(roundMilli(predWorst))
	}
	return v
}

// roundMilli converts milliticks to whole ticks, rounding half away
// from zero.
func roundMilli(m int64) int64 {
	if m >= 0 {
		return (m + 500) / 1000
	}
	return -((-m + 500) / 1000)
}

func (e *Engine) setSummaryGauges(level Level, worstMargin int64) {
	e.reg.Gauge("chronus_health_level").Set(int64(level))
	e.reg.Gauge("chronus_health_worst_margin_ticks").Set(worstMargin)
}
