package state

// Drift detection: diff each update's planner-intended end-state (the
// state.intent event recorded at plan time) against the observed rule
// histories and classify the gap.
//
// Per-switch states:
//
//   - applied   — a rule change matching the intended next hop landed at
//     or after the plan (and by the evaluation tick).
//   - pending   — the intended change is still in flight in the current
//     run: the switch holds the timed FlowMod, or its scheduled tick has
//     not arrived yet.
//   - missing   — no matching apply was observed and nothing pends: in a
//     dead run this is definitive (pending state died with the daemon).
//   - clobbered — the intended change applied but a later change
//     overwrote it.
//
// Update statuses roll up from the switches:
//
//   - planned    — plan-only admission (kind != "execute"); never
//     expected to touch the data plane.
//   - converged  — every switch applied and still holds the intent.
//   - converging — at least one switch still pending; the schedule is
//     in flight.
//   - stranded   — at least one switch missing with nothing pending:
//     the half-executed remainder will never arrive without operator
//     (or restart-recovery) action.
//   - diverged   — everything applied but some switch was clobbered
//     afterwards.

// DriftSwitch is one switch's evidence line in a drift report.
type DriftSwitch struct {
	Switch       string `json:"switch"`
	IntendedNext string `json:"intended_next"`
	IntendedAt   int64  `json:"intended_at"`
	State        string `json:"state"`
	AppliedAt    int64  `json:"applied_at,omitempty"`
	SentAt       int64  `json:"sent_at,omitempty"`
	ObservedNext string `json:"observed_next,omitempty"`
}

// DriftUpdate is one tracked update's drift verdict with per-switch
// evidence. DriftAgeTicks is measured on the cumulative cross-run tick
// axis: how long the observed state has lagged the intent.
type DriftUpdate struct {
	Run           int           `json:"run"`
	ID            uint64        `json:"id"`
	Tenant        string        `json:"tenant"`
	Flow          string        `json:"flow"`
	Key           string        `json:"key"`
	Kind          string        `json:"kind"`
	Method        string        `json:"method"`
	Status        string        `json:"status"`
	PlannedAt     int64         `json:"planned_at"`
	SlackTicks    int64         `json:"slack_ticks"`
	DriftAgeTicks int64         `json:"drift_age_ticks"`
	Switches      []DriftSwitch `json:"switches"`
}

// DriftReport is the GET /drift body.
type DriftReport struct {
	Run     int            `json:"run"`
	Now     int64          `json:"now"`
	Tracked int            `json:"tracked"`
	Counts  map[string]int `json:"counts"`
	Updates []DriftUpdate  `json:"updates"`
}

// DriftBody builds the drift report over every tracked update, across
// runs, and refreshes the chronus_state_* gauges.
func (s *Store) DriftBody() DriftReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep := DriftReport{
		Run:     s.run,
		Now:     s.lastTick,
		Tracked: len(s.order),
		Counts:  map[string]int{"converged": 0, "converging": 0, "diverged": 0, "planned": 0, "stranded": 0},
		Updates: []DriftUpdate{},
	}
	cumNow := s.offset(s.run) + s.lastTick
	var stranded int
	var worstAge int64
	for _, k := range s.order {
		u := s.updates[k]
		asOf := s.lastTick
		deadRun := u.run != s.run
		if deadRun {
			asOf = s.runEnd(u.run)
		}
		status, sws := s.classify(u, asOf)
		age := s.driftAge(u, status, deadRun, cumNow)
		rep.Counts[status]++
		if status == "stranded" {
			stranded++
		}
		if status != "converged" && status != "planned" && u.Kind == "execute" && age > worstAge {
			worstAge = age
		}
		rep.Updates = append(rep.Updates, DriftUpdate{
			Run: u.run, ID: u.ID, Tenant: u.Tenant, Flow: u.Flow, Key: u.Key,
			Kind: u.Kind, Method: u.Method, Status: status, PlannedAt: u.planned,
			SlackTicks: u.Slack, DriftAgeTicks: age, Switches: sws,
		})
	}
	if s.o.Obs != nil {
		s.o.Obs.Gauge("chronus_state_tracked_updates").Set(int64(len(s.order)))
		s.o.Obs.Gauge("chronus_state_stranded_updates").Set(int64(stranded))
		s.o.Obs.Gauge("chronus_state_drift_age_ticks").Set(worstAge)
	}
	return rep
}

// runEnd returns the final observed tick of a completed run.
func (s *Store) runEnd(run int) int64 {
	if run-1 < len(s.runEnds) {
		return s.runEnds[run-1]
	}
	return s.lastTick
}

// driftAge measures, on the cumulative tick axis, how long the update
// has been past the point where it should have converged. Converged and
// plan-only updates have no drift. A stranded update in a dead run ages
// from the moment its run died (its schedule can never progress again);
// everything else ages from its last intended apply tick.
func (s *Store) driftAge(u *updIntent, status string, deadRun bool, cumNow int64) int64 {
	if status == "converged" || status == "planned" {
		return 0
	}
	if status == "stranded" && deadRun {
		return cumNow - (s.offset(u.run) + s.runEnd(u.run))
	}
	var maxAt int64
	for _, sw := range u.Switches {
		if sw.At > maxAt {
			maxAt = sw.At
		}
	}
	if maxAt == 0 {
		maxAt = u.planned
	}
	if age := cumNow - (s.offset(u.run) + maxAt); age > 0 {
		return age
	}
	return 0
}

// classify evaluates one update against the observed tables as of tick
// asOf (expressed in the update's own run's coordinates). Callers hold
// s.mu.
func (s *Store) classify(u *updIntent, asOf int64) (string, []DriftSwitch) {
	sws := make([]DriftSwitch, 0, len(u.Switches))
	var applied, pending, missing, clobbered int
	for _, in := range u.Switches {
		d := DriftSwitch{Switch: in.Switch, IntendedNext: in.Next, IntendedAt: in.At}
		st := s.switches[in.Switch]
		if st != nil {
			if u.run == s.run {
				if sm, ok := st.sent[u.Key]; ok && sm.tick <= asOf {
					d.SentAt = sm.tick
				}
			}
			if cur, ok := ruleAsOf(st.rules[u.Key], u.run, asOf); ok {
				d.ObservedNext = cur.next
			}
			for _, c := range st.rules[u.Key] {
				if c.run == u.run && c.tick >= u.planned && c.tick <= asOf && c.next == in.Next {
					d.State = "applied"
					d.AppliedAt = c.tick
					break
				}
			}
		}
		switch {
		case d.State == "applied" && d.ObservedNext != in.Next:
			d.State = "clobbered"
			clobbered++
		case d.State == "applied":
			applied++
		case u.run == s.run && (in.At > asOf || holdsPending(st, u.Key, asOf)):
			d.State = "pending"
			pending++
		default:
			d.State = "missing"
			missing++
		}
		sws = append(sws, d)
	}
	var status string
	switch {
	case u.Kind != "execute":
		status = "planned"
	case applied == len(sws):
		status = "converged"
	case pending > 0:
		status = "converging"
	case missing > 0:
		status = "stranded"
	default:
		status = "diverged"
	}
	return status, sws
}

// holdsPending reports whether the switch held an unapplied timed
// FlowMod for the key at tick asOf.
func holdsPending(st *swState, key string, asOf int64) bool {
	if st == nil {
		return false
	}
	p, ok := st.pending[key]
	return ok && p.recv <= asOf
}
