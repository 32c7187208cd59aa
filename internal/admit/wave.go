// Wave planning: one coalescing window of queued updates is reserved
// against the ledger, partitioned into link-overlap conflict
// components, and planned — components fan out on the par pool
// (disjoint updates plan concurrently), multi-flow components compose
// through batch.SolveEach's joint validator. Workers only compute;
// every state transition, metric and trace event is applied by the
// coordinator in update-id order, which keeps the admission order and
// the trace byte-identical for a fixed submission sequence at any
// worker count.
package admit

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"github.com/chronus-sdn/chronus/internal/batch"
	"github.com/chronus-sdn/chronus/internal/controller"
	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/graph"
	"github.com/chronus-sdn/chronus/internal/obs"
	"github.com/chronus-sdn/chronus/internal/par"
	"github.com/chronus-sdn/chronus/internal/state"
)

// Plan-only updates are scheduled by planScheme, starting the
// controller's control headroom past "now".
const planScheme = "chronus"

// component is one conflict-graph component of a wave: updates whose
// link footprints are transitively connected. Members are in id order.
type component struct {
	members []*Update
}

// componentResult is a worker's verdict for one component.
type componentResult struct {
	// schedules maps planned update ids to their timed schedules.
	schedules map[uint64]*dynflow.Schedule
	// refusals maps refused update ids to their reasons.
	refusals map[uint64]string
}

// planWaveLocked drains one coalescing window. It returns false when
// the queue was empty. Callers hold e.planMu.
func (e *Engine) planWaveLocked() bool {
	now := e.o.Now()

	// Pick the window: priority-major, FIFO within a priority.
	e.mu.Lock()
	if len(e.queue) == 0 {
		e.mu.Unlock()
		return false
	}
	sort.SliceStable(e.queue, func(i, j int) bool {
		if e.queue[i].Req.Priority != e.queue[j].Req.Priority {
			return e.queue[i].Req.Priority > e.queue[j].Req.Priority
		}
		return e.queue[i].ID < e.queue[j].ID
	})
	n := len(e.queue)
	if n > e.o.Window {
		n = e.o.Window
	}
	wave := make([]*Update, n)
	copy(wave, e.queue[:n])
	e.queue = append(e.queue[:0], e.queue[n:]...)
	e.waves++
	waveNo := e.waves
	for _, u := range wave {
		u.State = StatePlanning
		u.Wave = waveNo
		u.PlannedVT = now
	}
	e.mu.Unlock()

	inc(e.counter("chronus_admit_waves_total", "", ""))
	e.trace(now, "admit.wave", obs.A("wave", waveNo), obs.A("size", n))

	// Debit the ledger in pick order: all-or-nothing per update, so a
	// refusal here names the saturated link and leaves no partial debit.
	reserved := make([]*Update, 0, len(wave))
	fps := make(map[uint64]Footprint, len(wave))
	for _, u := range wave {
		fp := FootprintOf(e.g, u.Req.Init, u.Req.Fin, u.Req.Demand)
		if err := e.ledger.Reserve(u.ID, fp); err != nil {
			e.resolveRefused(u, now, "ledger", err.Error())
			continue
		}
		fps[u.ID] = fp
		reserved = append(reserved, u)
	}

	comps := conflictComponents(reserved, fps)
	results := e.planComponents(now, comps)

	// Apply results sequentially in component order (components are in
	// smallest-member-id order, members in id order).
	var execs []*Update
	for ci, c := range comps {
		res := results[ci]
		for _, u := range c.members {
			if u.Req.Execute {
				execs = append(execs, u)
				continue
			}
			if reason, refused := res.refusals[u.ID]; refused {
				e.ledger.Release(u.ID)
				e.resolveRefused(u, now, refusalClass(reason), reason)
				continue
			}
			e.resolvePlanned(u, now, res.schedules[u.ID], len(c.members))
		}
	}

	// Execute-flagged updates run after planning, in id order, on the
	// coordinator goroutine: the executor owns solve, spans and cost.
	sort.Slice(execs, func(i, j int) bool { return execs[i].ID < execs[j].ID })
	for _, u := range execs {
		e.runExecutor(u)
	}

	e.refreshQueueGauges()
	return true
}

// planComponents fans the components out on the par pool. Workers get
// their residual graphs precomputed (deterministically, before the
// fan-out) and never touch shared state.
func (e *Engine) planComponents(now int64, comps []component) []componentResult {
	residuals := make([]*graph.Graph, len(comps))
	for i, c := range comps {
		ids := make([]uint64, len(c.members))
		for j, u := range c.members {
			ids[j] = u.ID
		}
		residuals[i] = e.ledger.Residual(ids...)
	}
	results, _ := par.Map(context.Background(), e.o.Procs, len(comps), func(_ context.Context, i int) (componentResult, error) {
		return e.planComponent(now, comps[i], residuals[i]), nil
	})
	return results
}

// planComponent plans one component's plan-only members jointly on the
// residual graph. It is pure: no engine state is touched.
func (e *Engine) planComponent(now int64, c component, res *graph.Graph) componentResult {
	out := componentResult{
		schedules: make(map[uint64]*dynflow.Schedule),
		refusals:  make(map[uint64]string),
	}
	flows := make([]batch.Flow, 0, len(c.members))
	byLabel := make(map[string]uint64, len(c.members))
	for _, u := range c.members {
		if u.Req.Execute {
			continue // the executor owns its solve; it only holds capacity here
		}
		label := fmt.Sprintf("%d:%s", u.ID, u.Req.Flow)
		byLabel[label] = u.ID
		flows = append(flows, batch.Flow{
			Name:   label,
			Demand: u.Req.Demand,
			Init:   u.Req.Init,
			Fin:    u.Req.Fin,
		})
	}
	if len(flows) == 0 {
		return out
	}
	plan, refusals, err := batch.SolveEach(res, flows, batch.Options{
		Start:  dynflow.Tick(now) + controller.Headroom,
		Scheme: planScheme,
	})
	if err != nil {
		for _, f := range flows {
			out.refusals[byLabel[f.Name]] = fmt.Sprintf("joint planning failed: %v", err)
		}
		return out
	}
	for _, r := range refusals {
		out.refusals[byLabel[r.Flow]] = r.Reason
	}
	for _, fu := range plan.Updates {
		out.schedules[byLabel[fu.Name]] = fu.S
	}
	return out
}

// conflictComponents partitions reserved updates by link-footprint
// overlap (union-find): updates sharing any directed link land in the
// same component and must be planned jointly.
func conflictComponents(updates []*Update, fps map[uint64]Footprint) []component {
	parent := make([]int, len(updates))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	owner := make(map[linkKey]int)
	for i, u := range updates {
		for _, k := range sortedKeys(fps[u.ID]) {
			if first, seen := owner[k]; seen {
				union(first, i)
			} else {
				owner[k] = i
			}
		}
	}
	groups := make(map[int][]int)
	roots := make([]int, 0)
	for i := range updates {
		r := find(i)
		if _, seen := groups[r]; !seen {
			roots = append(roots, r)
		}
		groups[r] = append(groups[r], i)
	}
	// Updates arrive in pick order; group members and component order
	// both follow the smallest member id for determinism.
	comps := make([]component, 0, len(roots))
	for _, r := range roots {
		c := component{}
		for _, i := range groups[r] {
			c.members = append(c.members, updates[i])
		}
		sort.Slice(c.members, func(a, b int) bool { return c.members[a].ID < c.members[b].ID })
		comps = append(comps, c)
	}
	sort.Slice(comps, func(a, b int) bool { return comps[a].members[0].ID < comps[b].members[0].ID })
	return comps
}

// refusalClass buckets a refusal reason into the metric label set.
func refusalClass(reason string) string {
	if strings.Contains(reason, "joint validation") {
		return "joint"
	}
	return "plan"
}

// resolveRefused terminates u with a refusal.
func (e *Engine) resolveRefused(u *Update, now int64, class, reason string) {
	e.mu.Lock()
	u.State = StateRefused
	u.Reason = reason
	u.DoneVT = now
	e.tenant(u.Req.Tenant).Refused++
	u.notify()
	e.mu.Unlock()
	inc(e.counter("chronus_admit_refused_total", "reason", class))
	e.trace(now, "admit.refuse", obs.A("id", u.ID), obs.A("tenant", u.Req.Tenant),
		obs.A("flow", u.Req.Flow), obs.A("reason", reason))
}

// resolvePlanned applies a successful plan: the schedule is recorded,
// the wait histogram observes the queue time, and the capacity hold is
// credited back unless the request asked to keep it open.
func (e *Engine) resolvePlanned(u *Update, now int64, s *dynflow.Schedule, componentSize int) {
	e.mu.Lock()
	u.Schedule = s
	u.ComponentSize = componentSize
	ts := e.tenant(u.Req.Tenant)
	ts.Planned++
	if u.Req.Hold {
		u.State = StateExecuting
	} else {
		u.State = StateDone
		u.DoneVT = now
	}
	u.notify()
	e.mu.Unlock()
	if !u.Req.Hold {
		e.ledger.Release(u.ID)
	}
	inc(e.counter("chronus_admit_planned_total", "", ""))
	if componentSize > 1 {
		inc(e.counter("chronus_admit_conflicts_total", "", ""))
	}
	if e.waitH != nil {
		e.waitH.Observe(float64(now - u.EnqueuedVT))
	}
	e.trace(now, "admit.plan", obs.A("id", u.ID), obs.A("tenant", u.Req.Tenant),
		obs.A("flow", u.Req.Flow), obs.A("wave", u.Wave), obs.A("component", componentSize),
		obs.A("wait", now-u.EnqueuedVT))
	// Record the planner's intended end-state for the observed-state
	// store. Plan-only updates never touch the data plane, so the drift
	// detector reports them as "planned" rather than holding switches
	// accountable — but the intent is on the record (and in the journal)
	// for offline inspection.
	if s != nil {
		state.Intent{
			ID: u.ID, Tenant: u.Req.Tenant, Flow: u.Req.Flow, Key: u.Req.Flow,
			Kind: "plan", Method: planScheme,
			Switches: state.Promises(e.g, u.Req.Fin, s, -1),
		}.Emit(e.o.Trace, now)
	}
}

// runExecutor hands an Execute-flagged update to the daemon's executor
// and settles its terminal state from the outcome.
func (e *Engine) runExecutor(u *Update) {
	now := e.o.Now()
	e.mu.Lock()
	u.State = StateExecuting
	e.mu.Unlock()
	e.trace(now, "admit.exec", obs.A("id", u.ID), obs.A("tenant", u.Req.Tenant),
		obs.A("method", u.Req.Method))
	span, err := e.o.Execute(u)
	done := e.o.Now()
	e.mu.Lock()
	u.Span = span
	u.DoneVT = done
	ts := e.tenant(u.Req.Tenant)
	if err != nil {
		u.State = StateFailed
		u.Reason = err.Error()
	} else {
		u.State = StateDone
		ts.Executed++
	}
	u.notify()
	e.mu.Unlock()
	e.ledger.Release(u.ID)
	if err == nil {
		inc(e.counter("chronus_admit_executed_total", "", ""))
	}
	if e.waitH != nil {
		e.waitH.Observe(float64(u.PlannedVT - u.EnqueuedVT))
	}
}

// refreshQueueGauges mirrors queue depth and oldest wait after a wave.
func (e *Engine) refreshQueueGauges() {
	if e.o.Obs == nil {
		return
	}
	now := e.o.Now()
	e.mu.Lock()
	depth := len(e.queue)
	oldest := int64(0)
	for _, u := range e.queue {
		if w := now - u.EnqueuedVT; w > oldest {
			oldest = w
		}
	}
	e.mu.Unlock()
	e.o.Obs.Gauge("chronus_admit_queue_depth").Set(int64(depth))
	e.o.Obs.Gauge("chronus_admit_queue_oldest_wait_ticks").Set(oldest)
}

// TenantView is one tenant's admission accounting in a Snapshot.
type TenantView struct {
	Tenant      string `json:"tenant"`
	Submitted   int64  `json:"submitted"`
	Planned     int64  `json:"planned"`
	Executed    int64  `json:"executed,omitempty"`
	Refused     int64  `json:"refused,omitempty"`
	Preempted   int64  `json:"preempted,omitempty"`
	MaxPriority int    `json:"max_priority,omitempty"`
}

// Snapshot is the engine's queue state (GET /queue).
type Snapshot struct {
	Depth            int            `json:"depth"`
	Cap              int            `json:"cap"`
	Window           int            `json:"window"`
	OldestWaitTicks  int64          `json:"oldest_wait_ticks"`
	SaturationStreak int            `json:"saturation_streak"`
	Waves            uint64         `json:"waves"`
	States           map[string]int `json:"states"`
	Tenants          []TenantView   `json:"tenants,omitempty"`
	Ledger           Utilization    `json:"ledger"`
}

// Snapshot reports the queue, per-tenant accounting and ledger load.
func (e *Engine) Snapshot() Snapshot {
	now := e.o.Now()
	e.mu.Lock()
	s := Snapshot{
		Depth:            len(e.queue),
		Cap:              e.o.QueueCap,
		Window:           e.o.Window,
		SaturationStreak: e.satStreak,
		Waves:            e.waves,
		States:           make(map[string]int),
	}
	for _, u := range e.queue {
		if w := now - u.EnqueuedVT; w > s.OldestWaitTicks {
			s.OldestWaitTicks = w
		}
	}
	for _, u := range e.updates {
		s.States[string(u.State)]++
	}
	names := make([]string, 0, len(e.tenants))
	for name := range e.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ts := e.tenants[name]
		s.Tenants = append(s.Tenants, TenantView{
			Tenant:      name,
			Submitted:   ts.Submitted,
			Planned:     ts.Planned,
			Executed:    ts.Executed,
			Refused:     ts.Refused,
			Preempted:   ts.Preempted,
			MaxPriority: ts.MaxPriority,
		})
	}
	e.mu.Unlock()
	s.Ledger = e.ledger.Utilization()
	return s
}
