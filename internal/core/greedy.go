package core

import (
	"container/heap"
	"fmt"
	"sort"

	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/graph"
	"github.com/chronus-sdn/chronus/internal/obs"
)

// Result carries the schedule produced by Greedy together with scheduling
// statistics used by the evaluation harness.
type Result struct {
	Schedule *dynflow.Schedule
	// TicksUsed is the number of scheduler rounds (distinct ticks at which
	// candidates were evaluated), including idle drain rounds.
	TicksUsed int
	// Validations counts ground-truth validator invocations (ModeExact
	// only; ModeFast never invokes the validator).
	Validations int
	// DependencyCycles counts rounds at which Algorithm 3 reported a
	// cyclic dependency relation. The paper's Algorithm 2 aborts in that
	// case; we record the event and fall back to ID order, since the
	// per-candidate acceptance checks are the actual safety guard.
	DependencyCycles int
	// BestEffort is true when Options.BestEffort was set and the scheduler
	// got stuck: the remaining switches were flipped after the drain, and
	// Report carries the resulting violations.
	BestEffort bool
	// Report is the final validation of the returned schedule. It is nil
	// in ModeFast (unless BestEffort fired), which by design never invokes
	// the validator; callers that want the guarantee run dynflow.Validate
	// themselves.
	Report *dynflow.Report
}

// Greedy implements Algorithm 2: starting at opts.Start it updates, at each
// tick, as many pending switches as pass the acceptance test, preferring
// the heads of the dependency chains of Algorithm 3. It returns
// ErrInfeasible when no violation-free schedule exists within the tick
// budget — either the data plane drained to a static configuration with no
// safe update left (waiting longer cannot change anything, per the argument
// of Theorem 2), or the schedule would exceed the budget.
//
// In ModeExact the acceptance test is full re-validation with the dynflow
// ground-truth validator; in ModeFast it is the closed-form in-flight
// account of fastState plus Algorithm 4's loop check, which never traces
// emissions. The fast mode is event-driven: rejected candidates carry a
// retry tick (all rejection conditions are monotone in time while the
// configuration is unchanged), so the scheduler jumps between wake events
// instead of probing every tick.
func Greedy(in *dynflow.Instance, opts Options) (*Result, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	mode := opts.Mode
	if mode == 0 {
		mode = ModeExact
	}
	sm := newSchedMetrics(opts.Obs)
	sm.runs.Inc()
	res := &Result{Schedule: dynflow.NewSchedule(opts.Start)}
	if len(in.UpdateSet()) == 0 {
		if mode == ModeExact {
			res.Report = dynflow.Validate(in, res.Schedule)
			res.Validations++
			sm.validations.Inc()
		}
		return res, nil
	}
	ws := getWorkspace(in.G.NumNodes())
	defer putWorkspace(ws)
	var err error
	if mode == ModeFast {
		res, err = greedyFast(in, opts, sm, res, ws)
	} else {
		res, err = greedyExact(in, opts, sm, res, ws)
	}
	if err == nil {
		sm.makespan.Observe(float64(res.Schedule.Makespan()))
	}
	return res, err
}

// greedyExact is the validator-backed variant: per tick, try every pending
// candidate and keep those the ground-truth validator approves. Intended
// for the instance sizes of the quality experiments (tens of switches).
func greedyExact(in *dynflow.Instance, opts Options, sm schedMetrics, res *Result, ws *workspace) (*Result, error) {
	s := res.Schedule
	pending := in.UpdateSet()
	maxTicks := opts.MaxTicks
	if maxTicks <= 0 {
		maxTicks = autoMaxTicks(in)
	}
	pathDrain := dynflow.Tick(in.Init.Delay(in.G) + in.Fin.Delay(in.G))
	drainHorizon := s.Start + dynflow.Tick(in.Init.Delay(in.G))
	var lastReport *dynflow.Report

	// Validator rejections stem from in-flight collisions that recede over
	// time but carry no closed-form retry tick, so rejected candidates back
	// off exponentially (reset whenever an acceptance changes the
	// configuration). This bounds revalidations per candidate per epoch to
	// a logarithm of the drain time at a small makespan cost. The backoff
	// state lives in the workspace's stamped arrays; resetSleep opens a
	// fresh epoch.
	ws.resetSleep()

	t := s.Start
	for len(pending) > 0 {
		if t-s.Start > maxTicks {
			if err := res.giveUp(opts, pending, t, fmt.Sprintf("exceeded tick budget %d", maxTicks)); err != nil {
				return res, err
			}
			break
		}
		res.TicksUsed++
		order, cycleErr := candidateOrder(in, s, pending, t, ws)
		if cycleErr != nil {
			res.DependencyCycles++
			sm.cycles.Inc()
		}
		lc := newLoopChecker(in, s, t, ws)
		accepted := make(map[graph.NodeID]bool)
		for changed := true; changed; {
			changed = false
			for _, cand := range order {
				if accepted[cand.v] {
					continue
				}
				if su, _ := ws.sleepOf(cand.v); su > t {
					sm.deferred.Inc()
					continue
				}
				if !lc.ok(cand.v) {
					sm.deferred.Inc()
					continue
				}
				s.Set(cand.v, t)
				res.Validations++
				sm.validations.Inc()
				r := dynflow.Validate(in, s)
				if !r.OK() {
					delete(s.Times, cand.v)
					n := ws.bumpStrike(cand.v)
					backoff := dynflow.Tick(1) << minUint(uint(n)-1, 7)
					ws.setSleep(cand.v, t+backoff)
					sm.rejected.Inc()
					continue
				}
				lastReport = r
				accepted[cand.v] = true
				changed = true
				sm.accepted.Inc()
				if opts.Trace != nil {
					opts.Trace.Point(int64(t), "sched.accept", obs.A("switch", in.G.Name(cand.v)))
				}
				lc = newLoopChecker(in, s, t, ws)
				if ws.sleepCount > 0 {
					ws.resetSleep()
					sm.backoffResets.Inc()
				}
			}
		}
		if len(accepted) > 0 {
			pending = removeAll(pending, accepted)
			if lastReport != nil && lastReport.LatestArrival > drainHorizon {
				drainHorizon = lastReport.LatestArrival
			}
			if dh := t + pathDrain; dh > drainHorizon {
				drainHorizon = dh
			}
			t++
			continue
		}
		// Nothing accepted: every pending candidate is either backing off
		// (validator rejection) or loop-parked (configuration-bound, so
		// only an acceptance can unlock it). Skip ahead to the earliest
		// backoff wake-up; if nobody is backing off, or the data plane has
		// drained, the configuration is static and the instance is
		// infeasible.
		next := dynflow.Tick(0)
		found := false
		for _, v := range pending {
			if su, ok := ws.sleepOf(v); ok && su > t {
				if !found || su < next {
					next = su
					found = true
				}
			}
		}
		if t > drainHorizon || !found {
			if err := res.giveUp(opts, pending, t, fmt.Sprintf("static configuration at tick %d with %d switches pending", t, len(pending))); err != nil {
				return res, err
			}
			break
		}
		t = next
		sm.wakeJumps.Inc()
	}
	res.Report = lastReport
	if res.Report == nil || res.BestEffort {
		res.Report = dynflow.Validate(in, s)
		res.Validations++
		sm.validations.Inc()
	}
	if !res.BestEffort && !res.Report.OK() {
		// Cannot happen: every acceptance was validator-approved and the
		// validator is deterministic. Guard anyway.
		return res, fmt.Errorf("core: internal error: exact-mode schedule failed validation: %s", res.Report.Summary())
	}
	return res, nil
}

// wakeEvent schedules a candidate's re-evaluation.
type wakeEvent struct {
	at dynflow.Tick
	v  graph.NodeID
}

type wakeHeap []wakeEvent

func (h wakeHeap) Len() int { return len(h) }
func (h wakeHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].v < h[j].v
}
func (h wakeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *wakeHeap) Push(x any)   { *h = append(*h, x.(wakeEvent)) }
func (h *wakeHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	*h = old[:n-1]
	return ev
}

// greedyFast is the event-driven fast variant.
func greedyFast(in *dynflow.Instance, opts Options, sm schedMetrics, res *Result, ws *workspace) (*Result, error) {
	s := res.Schedule
	fs := newFastState(in, ws)
	maxTicks := opts.MaxTicks
	if maxTicks <= 0 {
		maxTicks = fastTickBudget(in)
	}

	pendingCount := 0
	state := make(map[graph.NodeID]int) // 0 absent, 1 pending, 2 done
	for _, v := range in.UpdateSet() {
		state[v] = 1
		pendingCount++
	}

	// ready holds candidates due for evaluation now; wakes holds candidates
	// sleeping until a collision drains; parked holds candidates whose
	// rejection only a configuration change can lift.
	order, cycleErr := candidateOrder(in, s, in.UpdateSet(), s.Start, ws)
	if cycleErr != nil {
		res.DependencyCycles++
		sm.cycles.Inc()
	}
	ready := make([]graph.NodeID, 0, len(order))
	for _, c := range order {
		ready = append(ready, c.v)
	}
	var wakes wakeHeap
	var parked []graph.NodeID
	lc := newLoopChecker(in, s, s.Start, ws)

	t := s.Start
	giveUp := func(why string) error {
		return res.giveUp(opts, pendingByState(state), maxTick(t, fs.drainHorizon()+1), why)
	}
	for pendingCount > 0 {
		res.TicksUsed++
		// Evaluate the ready set to a fixpoint at tick t.
		for len(ready) > 0 {
			v := ready[0]
			ready = ready[1:]
			if state[v] != 1 {
				continue
			}
			if !lc.ok(v) {
				parked = append(parked, v)
				sm.deferred.Inc()
				continue
			}
			ok, retry := fs.tryUpdate(s, v, t)
			if !ok {
				if retry >= neverTick {
					parked = append(parked, v)
					sm.deferred.Inc()
				} else {
					heap.Push(&wakes, wakeEvent{at: retry, v: v})
					sm.rejected.Inc()
				}
				continue
			}
			s.Set(v, t)
			state[v] = 2
			pendingCount--
			sm.accepted.Inc()
			if opts.Trace != nil {
				opts.Trace.Point(int64(t), "sched.accept", obs.A("switch", in.G.Name(v)))
			}
			// Configuration changed: refresh the snapshot checker and give
			// the parked candidates another chance.
			lc = newLoopChecker(in, s, t, ws)
			ready = append(ready, parked...)
			parked = parked[:0]
		}
		if pendingCount == 0 {
			break
		}
		// Advance to the next wake event.
		if len(wakes) == 0 {
			// Static configuration, no drain event pending: infeasible.
			if err := giveUp(fmt.Sprintf("static configuration at tick %d with %d switches pending", t, pendingCount)); err != nil {
				return res, err
			}
			break
		}
		next := wakes[0].at
		if next <= t {
			next = t + 1
		}
		if next-s.Start > maxTicks {
			if err := giveUp(fmt.Sprintf("exceeded tick budget %d", maxTicks)); err != nil {
				return res, err
			}
			break
		}
		t = next
		sm.wakeJumps.Inc()
		for len(wakes) > 0 && wakes[0].at <= t {
			ev := heap.Pop(&wakes).(wakeEvent)
			if state[ev.v] == 1 {
				ready = append(ready, ev.v)
			}
		}
	}
	if res.BestEffort {
		res.Report = dynflow.Validate(in, s)
		sm.validations.Inc()
	}
	return res, nil
}

func pendingByState(state map[graph.NodeID]int) []graph.NodeID {
	var out []graph.NodeID
	for v, st := range state {
		if st == 1 {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// fastTickBudget bounds the schedule horizon for the fast mode: a
// handful of end-to-end drain times. Feasible schedules complete well
// within it (every wait is bounded by the drain of some earlier
// redirection); an update needing more is treated as infeasible, which
// also bounds the running time on adversarial instances.
func fastTickBudget(in *dynflow.Instance) dynflow.Tick {
	return 8*dynflow.Tick(in.Init.Delay(in.G)+in.Fin.Delay(in.G)) + 16*dynflow.Tick(maxLinkDelay(in.G)) + 16
}

type candidate struct {
	v    graph.NodeID
	head bool
}

// candidateOrder lists pending switches with chain heads first (in chain
// order), then the remaining chain members. On a dependency cycle the order
// falls back to pending sorted by ID; the error is reported so callers can
// count the event (the paper's Algorithm 2 would abort here).
func candidateOrder(in *dynflow.Instance, s *dynflow.Schedule, pending []graph.NodeID, t dynflow.Tick, ws *workspace) ([]candidate, error) {
	chains, err := dependencyChains(in, s, pending, t, ws)
	if err != nil {
		sorted := append([]graph.NodeID(nil), pending...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		out := make([]candidate, len(sorted))
		for i, v := range sorted {
			out[i] = candidate{v: v, head: false}
		}
		return out, err
	}
	var out []candidate
	for _, c := range chains {
		if len(c) > 0 {
			out = append(out, candidate{v: c[0], head: true})
		}
	}
	for _, c := range chains {
		for _, v := range c[1:] {
			out = append(out, candidate{v: v, head: false})
		}
	}
	return out, nil
}

func removeAll(pending []graph.NodeID, drop map[graph.NodeID]bool) []graph.NodeID {
	out := pending[:0]
	for _, v := range pending {
		if !drop[v] {
			out = append(out, v)
		}
	}
	return out
}

// giveUp is the one exit of a solve that cannot finish cleanly: the
// wrapped ErrInfeasible saying why, or, under Options.BestEffort, nil after
// flipping every remaining switch at tick t — the data plane has drained,
// so this minimizes the remaining exposure; the caller reads the resulting
// violations off Result.Report (the Fig. 8 accounting).
func (res *Result) giveUp(opts Options, pending []graph.NodeID, t dynflow.Tick, why string) error {
	if !opts.BestEffort {
		return fmt.Errorf("%w: %s", ErrInfeasible, why)
	}
	for _, v := range pending {
		res.Schedule.Set(v, t)
	}
	res.BestEffort = true
	return nil
}
