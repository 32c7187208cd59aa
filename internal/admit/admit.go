// Package admit is the update lifecycle engine: a bounded admission
// queue in front of the planners, a shared per-link capacity ledger
// (reservations debited at plan time, credited at audited completion,
// so concurrent plans never double-book bandwidth), and a flow-overlap
// conflict graph that lets disjoint updates plan in parallel on the
// par pool while conflicting ones batch through the joint validator.
//
// The engine replaces chronusd's "HTTP handler calls SolveWith inline"
// update path with explicit states — queued, planning, executing,
// done, refused, failed — registered synchronously at enqueue, so an
// update id returned by Submit always resolves.
//
// Waves drain by group commit: the first waiter plans one coalescing
// window covering everything queued at that moment, and every other
// waiter just blocks on its update's terminal state. All state
// transitions and trace events are emitted by the wave coordinator in
// id order — parallel workers only compute — so for a fixed
// submission sequence the admission order and the trace are
// byte-identical at any worker count.
package admit

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/graph"
	"github.com/chronus-sdn/chronus/internal/obs"
)

// State is an update's position in the lifecycle.
type State string

// Lifecycle states. Queued and planning are transient; executing marks
// a planned update whose capacity hold is still open (a data-plane
// execution window, or a caller-managed completion); done, refused and
// failed are terminal.
const (
	StateQueued    State = "queued"
	StatePlanning  State = "planning"
	StateExecuting State = "executing"
	StateDone      State = "done"
	StateRefused   State = "refused"
	StateFailed    State = "failed"
)

// terminal reports whether s ends the lifecycle.
func terminal(s State) bool {
	return s == StateDone || s == StateRefused || s == StateFailed
}

// Request is one tenant's update request.
type Request struct {
	// Tenant and Flow name the update for accounting and refusals.
	Tenant string
	Flow   string
	// Demand, Init and Fin describe the flow's migration on the
	// engine's graph.
	Demand graph.Capacity
	Init   graph.Path
	Fin    graph.Path
	// Priority orders admission within a wave; when the queue is full a
	// submission with higher priority preempts the lowest-priority
	// queued update instead of being refused.
	Priority int
	// Execute asks the engine to run the update on the data plane
	// through the Executor instead of planning it in the wave solver.
	Execute bool
	// Method is the scheme (or "tp") an executed update runs with.
	Method string
	// Hold keeps the capacity reservation open after planning until
	// Complete or Fail is called; without it a plan-only update credits
	// the ledger as soon as its wave's validation verdict is in.
	Hold bool
}

// Update is one tracked update. Fields are written only by the engine;
// callers read snapshots via View.
type Update struct {
	ID  uint64
	Req Request

	State  State
	Reason string
	// Span is the root span id of an executed update (the cost-report
	// key), zero for plan-only updates.
	Span obs.SpanID
	// Wave is the planning wave that resolved the update.
	Wave uint64
	// ComponentSize is how many updates shared the conflict component
	// the update was planned in (1 = disjoint).
	ComponentSize int
	// Schedule is the planned timed schedule of a plan-only update.
	Schedule *dynflow.Schedule

	EnqueuedVT int64
	PlannedVT  int64
	DoneVT     int64

	done     chan struct{}
	notified bool
}

// notify wakes waiters exactly once: a held update is signalled when
// its hold opens (state executing) and must not re-close on Complete.
// Callers hold the engine's mu.
func (u *Update) notify() {
	if !u.notified {
		u.notified = true
		close(u.done)
	}
}

// UpdateView is the JSON snapshot of an update (GET /updates/{id}).
type UpdateView struct {
	ID             uint64           `json:"id"`
	Tenant         string           `json:"tenant,omitempty"`
	Flow           string           `json:"flow,omitempty"`
	Demand         int64            `json:"demand,omitempty"`
	Priority       int              `json:"priority,omitempty"`
	Method         string           `json:"method,omitempty"`
	State          string           `json:"state"`
	Reason         string           `json:"reason,omitempty"`
	Span           uint64           `json:"span,omitempty"`
	Wave           uint64           `json:"wave,omitempty"`
	ComponentSize  int              `json:"component_size,omitempty"`
	EnqueuedVT     int64            `json:"enqueued_vt"`
	PlannedVT      int64            `json:"planned_vt,omitempty"`
	DoneVT         int64            `json:"done_vt,omitempty"`
	QueueWaitTicks int64            `json:"queue_wait_ticks,omitempty"`
	Schedule       map[string]int64 `json:"schedule,omitempty"`
}

// Options configures an Engine.
type Options struct {
	// QueueCap bounds the admission queue (default 256). A submission
	// against a full queue is refused — backpressure — unless its
	// priority beats a queued update's, which is then preempted.
	QueueCap int
	// Window is the coalescing window: how many queued updates one
	// planning wave covers (default 64).
	Window int
	// Procs bounds the parallel component planners (0 = all CPUs,
	// 1 = the serialized reference path).
	Procs int
	// Now supplies virtual time; nil pins it to zero.
	Now func() int64
	// Execute runs an Execute-flagged update on the data plane and
	// returns its root span. Executed updates skip the wave solver —
	// the executor owns solve, spans and cost — but hold ledger
	// capacity like everyone else. Nil refuses Execute requests.
	Execute func(*Update) (obs.SpanID, error)
	// Obs receives the chronus_admit_* metrics; nil disables them.
	Obs *obs.Registry
	// Trace receives admit.* lifecycle events; nil disables tracing.
	Trace *obs.Tracer
}

// ErrQueueFull reports a refused submission against a full queue.
var ErrQueueFull = errors.New("admit: queue full")

// tenantStats is the per-tenant accounting behind Snapshot and the
// health layer's preemption surface.
type tenantStats struct {
	Submitted, Planned, Refused, Preempted, Executed int64
	MaxPriority                                      int
}

// Engine is the admission pipeline. All methods are safe for
// concurrent use.
type Engine struct {
	g      *graph.Graph
	ledger *Ledger
	o      Options

	mu        sync.Mutex
	updates   map[uint64]*Update
	queue     []*Update
	nextID    uint64
	waves     uint64
	satStreak int
	tenants   map[string]*tenantStats
	order     []uint64 // ids in submission order (bounded reporting)

	waitH *obs.Histogram

	planMu sync.Mutex
}

// New builds an engine planning on g. The graph is shared with the
// caller and must not be mutated while the engine lives.
func New(g *graph.Graph, o Options) *Engine {
	if o.QueueCap <= 0 {
		o.QueueCap = 256
	}
	if o.Window <= 0 {
		o.Window = 64
	}
	if o.Now == nil {
		o.Now = func() int64 { return 0 }
	}
	RegisterMetrics(o.Obs)
	e := &Engine{
		g:       g,
		ledger:  NewLedger(g, o.Obs),
		o:       o,
		updates: make(map[uint64]*Update),
		tenants: make(map[string]*tenantStats),
	}
	if o.Obs != nil {
		e.waitH = o.Obs.Histogram("chronus_admit_queue_wait_ticks",
			[]float64{0, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000})
	}
	return e
}

// RegisterMetrics pre-registers every chronus_admit_* family on reg so
// the exposition is complete before the first submission. Safe on nil.
func RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Help("chronus_admit_submitted_total", "Update requests accepted into the admission queue, by tenant.")
	reg.Help("chronus_admit_refused_total", "Update requests refused, by reason class (queue_full, preempted, ledger, plan, joint, invalid).")
	reg.Help("chronus_admit_preempted_total", "Queued updates evicted by higher-priority submissions, by tenant.")
	reg.Help("chronus_admit_planned_total", "Updates planned successfully by admission waves.")
	reg.Help("chronus_admit_executed_total", "Updates executed on the data plane through the admission pipeline.")
	reg.Help("chronus_admit_waves_total", "Planning waves drained from the admission queue.")
	reg.Help("chronus_admit_conflicts_total", "Updates planned inside multi-flow conflict components (jointly validated).")
	reg.Help("chronus_admit_queue_depth", "Updates currently queued for admission.")
	reg.Help("chronus_admit_queue_oldest_wait_ticks", "Virtual-time age of the oldest queued update.")
	reg.Help("chronus_admit_queue_wait_ticks", "Virtual-time queue wait from enqueue to wave pickup.")
	reg.Help("chronus_admit_ledger_overcommit_total", "Ledger self-check: debits that left a link above capacity. Must stay zero.")
	reg.Help("chronus_admit_ledger_reserved_units", "Capacity units currently reserved by in-flight updates.")
	reg.Help("chronus_admit_ledger_utilization_pct", "Highest per-link reservation percentage in the ledger.")
	reg.Counter("chronus_admit_ledger_overcommit_total")
	reg.Counter("chronus_admit_planned_total")
	reg.Counter("chronus_admit_executed_total")
	reg.Counter("chronus_admit_waves_total")
	reg.Counter("chronus_admit_conflicts_total")
	reg.Gauge("chronus_admit_queue_depth")
	reg.Gauge("chronus_admit_queue_oldest_wait_ticks")
	reg.Gauge("chronus_admit_ledger_reserved_units")
	reg.Gauge("chronus_admit_ledger_utilization_pct")
}

func (e *Engine) counter(name, labelKey, labelVal string) *obs.Counter {
	if e.o.Obs == nil {
		return nil
	}
	if labelKey == "" {
		return e.o.Obs.Counter(name)
	}
	return e.o.Obs.Counter(fmt.Sprintf("%s{%s=%q}", name, labelKey, labelVal))
}

func inc(c *obs.Counter) {
	if c != nil {
		c.Inc()
	}
}

// Ledger exposes the engine's capacity ledger (read-side: utilization,
// residual graphs for diagnostics).
func (e *Engine) Ledger() *Ledger { return e.ledger }

// Submit validates and enqueues a request, returning the update id the
// moment it is registered — a GET /updates/{id} issued right after
// Submit returns can never 404, however loaded the planners are. The
// request is refused synchronously (no id) when it is malformed, the
// executor is missing for an Execute request, or the queue is full and
// the request's priority beats nobody.
func (e *Engine) Submit(req Request) (uint64, error) {
	if err := e.validate(req); err != nil {
		inc(e.counter("chronus_admit_refused_total", "reason", "invalid"))
		return 0, err
	}
	now := e.o.Now()
	e.mu.Lock()
	var preempted *Update
	if len(e.queue) >= e.o.QueueCap {
		victim := e.preemptionVictim(req.Priority)
		if victim == nil {
			e.satStreak++
			depth := len(e.queue)
			e.mu.Unlock()
			inc(e.counter("chronus_admit_refused_total", "reason", "queue_full"))
			return 0, fmt.Errorf("%w (depth %d)", ErrQueueFull, depth)
		}
		preempted = victim
		e.dropQueued(victim)
		victim.State = StateRefused
		victim.Reason = fmt.Sprintf("preempted by priority-%d submission from tenant %q", req.Priority, req.Tenant)
		victim.DoneVT = now
		e.tenant(victim.Req.Tenant).Preempted++
		victim.notify()
	} else {
		e.satStreak = 0
	}
	e.nextID++
	u := &Update{
		ID:         e.nextID,
		Req:        req,
		State:      StateQueued,
		EnqueuedVT: now,
		done:       make(chan struct{}),
	}
	e.updates[u.ID] = u
	e.order = append(e.order, u.ID)
	e.queue = append(e.queue, u)
	ts := e.tenant(req.Tenant)
	ts.Submitted++
	if req.Priority > ts.MaxPriority {
		ts.MaxPriority = req.Priority
	}
	depth := len(e.queue)
	e.mu.Unlock()

	inc(e.counter("chronus_admit_submitted_total", "tenant", req.Tenant))
	if e.o.Obs != nil {
		e.o.Obs.Gauge("chronus_admit_queue_depth").Set(int64(depth))
	}
	if preempted != nil {
		inc(e.counter("chronus_admit_preempted_total", "tenant", preempted.Req.Tenant))
		inc(e.counter("chronus_admit_refused_total", "reason", "preempted"))
		e.trace(now, "admit.refuse", obs.A("id", preempted.ID), obs.A("tenant", preempted.Req.Tenant),
			obs.A("flow", preempted.Req.Flow), obs.A("reason", "preempted"))
	}
	e.trace(now, "admit.enqueue", obs.A("id", u.ID), obs.A("tenant", req.Tenant),
		obs.A("flow", req.Flow), obs.A("priority", req.Priority), obs.A("depth", depth))
	return u.ID, nil
}

// validate rejects malformed requests before they consume an id.
func (e *Engine) validate(req Request) error {
	if req.Execute {
		if e.o.Execute == nil {
			return errors.New("admit: engine has no executor for an execute request")
		}
		return nil
	}
	if req.Demand <= 0 {
		return fmt.Errorf("admit: non-positive demand %d", req.Demand)
	}
	if err := req.Init.Validate(e.g); err != nil {
		return fmt.Errorf("admit: initial path: %w", err)
	}
	if err := req.Fin.Validate(e.g); err != nil {
		return fmt.Errorf("admit: final path: %w", err)
	}
	if req.Init.Source() != req.Fin.Source() || req.Init.Dest() != req.Fin.Dest() {
		return errors.New("admit: initial and final paths disagree on endpoints")
	}
	return nil
}

// preemptionVictim returns the queued update the submission may evict:
// the lowest-priority, youngest queued update — and only when its
// priority is strictly below the newcomer's. Callers hold e.mu.
func (e *Engine) preemptionVictim(priority int) *Update {
	var victim *Update
	for _, u := range e.queue {
		if victim == nil || u.Req.Priority < victim.Req.Priority ||
			(u.Req.Priority == victim.Req.Priority && u.ID > victim.ID) {
			victim = u
		}
	}
	if victim == nil || victim.Req.Priority >= priority {
		return nil
	}
	return victim
}

func (e *Engine) dropQueued(u *Update) {
	for i, q := range e.queue {
		if q == u {
			e.queue = append(e.queue[:i], e.queue[i+1:]...)
			return
		}
	}
}

func (e *Engine) tenant(name string) *tenantStats {
	ts := e.tenants[name]
	if ts == nil {
		ts = &tenantStats{}
		e.tenants[name] = ts
	}
	return ts
}

func (e *Engine) trace(vt int64, name string, attrs ...obs.Attr) {
	if e.o.Trace != nil {
		e.o.Trace.Point(vt, name, attrs...)
	}
}

// View snapshots one update.
func (e *Engine) View(id uint64) (UpdateView, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	u, ok := e.updates[id]
	if !ok {
		return UpdateView{}, false
	}
	return e.viewLocked(u), true
}

func (e *Engine) viewLocked(u *Update) UpdateView {
	v := UpdateView{
		ID:            u.ID,
		Tenant:        u.Req.Tenant,
		Flow:          u.Req.Flow,
		Demand:        int64(u.Req.Demand),
		Priority:      u.Req.Priority,
		Method:        u.Req.Method,
		State:         string(u.State),
		Reason:        u.Reason,
		Span:          uint64(u.Span),
		Wave:          u.Wave,
		ComponentSize: u.ComponentSize,
		EnqueuedVT:    u.EnqueuedVT,
		PlannedVT:     u.PlannedVT,
		DoneVT:        u.DoneVT,
	}
	if u.PlannedVT > 0 || u.State != StateQueued {
		v.QueueWaitTicks = u.PlannedVT - u.EnqueuedVT
	}
	if u.Schedule != nil {
		v.Schedule = make(map[string]int64, len(u.Schedule.Times))
		for sw, tick := range u.Schedule.Times {
			v.Schedule[e.g.Name(sw)] = int64(tick)
		}
	}
	return v
}

// Wait blocks until the update reaches a terminal state (or, for Hold
// requests, until its capacity hold opens), draining planning waves
// while it waits: the first waiter becomes the wave coordinator and
// everyone else blocks on their update's transition — group commit.
func (e *Engine) Wait(ctx context.Context, id uint64) (UpdateView, error) {
	e.mu.Lock()
	u, ok := e.updates[id]
	e.mu.Unlock()
	if !ok {
		return UpdateView{}, fmt.Errorf("admit: no update %d", id)
	}
	for {
		if v, settled := e.settled(u); settled {
			return v, nil
		}
		select {
		case <-ctx.Done():
			return UpdateView{}, ctx.Err()
		default:
		}
		e.planMu.Lock()
		if v, settled := e.settled(u); settled {
			e.planMu.Unlock()
			return v, nil
		}
		progressed := e.planWaveLocked()
		e.planMu.Unlock()
		if !progressed {
			select {
			case <-u.done:
			case <-ctx.Done():
				return UpdateView{}, ctx.Err()
			}
		}
	}
}

// settled reports whether Wait may return: terminal state, or a held
// plan whose reservation is now open (its completion is the caller's).
func (e *Engine) settled(u *Update) (UpdateView, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if terminal(u.State) || (u.State == StateExecuting && u.Req.Hold) {
		return e.viewLocked(u), true
	}
	return UpdateView{}, false
}

// Drain plans waves until the queue is empty. It is the batch-mode
// pump the soak harness and tests use; the daemon drains through Wait.
func (e *Engine) Drain() {
	e.planMu.Lock()
	defer e.planMu.Unlock()
	for e.planWaveLocked() {
	}
}

// DrainOne plans at most one coalescing window and reports whether it
// made progress. Harnesses that interleave hold completion with wave
// planning (the soak generator) pump with this instead of Drain.
func (e *Engine) DrainOne() bool {
	e.planMu.Lock()
	defer e.planMu.Unlock()
	return e.planWaveLocked()
}

// ScheduleOf returns a copy of a planned update's timed schedule, for
// callers that execute or re-validate plans outside the engine.
func (e *Engine) ScheduleOf(id uint64) (*dynflow.Schedule, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	u, ok := e.updates[id]
	if !ok || u.Schedule == nil {
		return nil, false
	}
	return u.Schedule.Clone(), true
}

// Complete credits a held update's reservation and marks it done. It
// is a no-op for unknown ids and already-terminal updates.
func (e *Engine) Complete(id uint64) { e.finishHold(id, StateDone, "") }

// Fail credits a held update's reservation and marks it failed.
func (e *Engine) Fail(id uint64, reason string) { e.finishHold(id, StateFailed, reason) }

func (e *Engine) finishHold(id uint64, s State, reason string) {
	now := e.o.Now()
	e.mu.Lock()
	u, ok := e.updates[id]
	if !ok || terminal(u.State) {
		e.mu.Unlock()
		return
	}
	u.State = s
	u.Reason = reason
	u.DoneVT = now
	u.notify()
	e.mu.Unlock()
	e.ledger.Release(id)
	e.trace(now, "admit.complete", obs.A("id", id), obs.A("state", string(s)))
}
