package state

import (
	"cmp"
	"encoding/json"
	"slices"
)

// Encode renders a snapshot/drift/timeline body exactly the way the
// daemon's writeJSON does (two-space indent, trailing newline), so the
// offline `mutp -state-from` output is byte-identical to the live HTTP
// bodies for the same event stream.
func Encode(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// RuleSnap is one installed rule at the snapshot tick. Since is the
// tick of the change that installed the current next hop.
type RuleSnap struct {
	Key   string `json:"key"`
	Next  string `json:"next"`
	Since int64  `json:"since"`
}

// PendingSnap is a timed FlowMod a switch held but had not yet applied
// at the snapshot tick.
type PendingSnap struct {
	Key      string `json:"key"`
	At       int64  `json:"at"`
	Next     string `json:"next"`
	Received int64  `json:"received"`
}

// SwitchSnap is one switch's observed table at the snapshot tick.
type SwitchSnap struct {
	Switch  string        `json:"switch"`
	Rules   []RuleSnap    `json:"rules"`
	Pending []PendingSnap `json:"pending,omitempty"`
	Drops   int           `json:"drops,omitempty"`
}

// LinkSnap is one link's observed utilization at the snapshot tick.
// Rate is the instantaneous total rate of the newest sample at or
// before the tick (NOT the peak — GET /links reports peaks separately),
// Since is that sample's tick.
type LinkSnap struct {
	Link     string `json:"link"`
	Capacity int64  `json:"capacity"`
	Rate     int64  `json:"rate"`
	Since    int64  `json:"since"`
}

// UpdateOverlay maps an in-flight update onto the snapshot: its drift
// status as of the snapshot tick and the switches whose intended rule
// change had not yet been observed.
type UpdateOverlay struct {
	Run             int      `json:"run"`
	ID              uint64   `json:"id"`
	Tenant          string   `json:"tenant"`
	Flow            string   `json:"flow"`
	Key             string   `json:"key"`
	Kind            string   `json:"kind"`
	Method          string   `json:"method"`
	Status          string   `json:"status"`
	PlannedAt       int64    `json:"planned_at"`
	PendingSwitches []string `json:"pending_switches,omitempty"`
}

// StateSnapshot is the GET /state body: the observed data-plane state
// of the current run as of tick At. TimeTravel marks a reconstruction
// of a past tick (At < Now) rather than the live view.
type StateSnapshot struct {
	Run          int             `json:"run"`
	Now          int64           `json:"now"`
	At           int64           `json:"at"`
	TimeTravel   bool            `json:"time_travel"`
	MissedEvents uint64          `json:"missed_events,omitempty"`
	Switches     []SwitchSnap    `json:"switches"`
	Links        []LinkSnap      `json:"links"`
	Updates      []UpdateOverlay `json:"updates"`
}

// StateBody builds the snapshot of the current run as of tick at; a
// negative at means "now" (the newest folded tick).
func (s *Store) StateBody(at int64) StateSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := at
	if t < 0 {
		t = s.lastTick
	}
	snap := StateSnapshot{
		Run:          s.run,
		Now:          s.lastTick,
		At:           t,
		TimeTravel:   t < s.lastTick,
		MissedEvents: s.missed,
		Switches:     make([]SwitchSnap, 0, len(s.switches)),
		Links:        make([]LinkSnap, 0, len(s.links)),
		Updates:      []UpdateOverlay{},
	}
	for _, st := range s.switches {
		sw := SwitchSnap{Switch: st.name, Rules: make([]RuleSnap, 0, len(st.keys))}
		for _, r := range st.keys {
			if c, ok := ruleAsOf(r.rules, s.run, t); ok && c.next != "" {
				sw.Rules = append(sw.Rules, RuleSnap{Key: r.key, Next: c.next, Since: c.tick})
			}
		}
		sw.Pending = pendingAsOf(st, s.run, t)
		for _, d := range st.drops {
			if d.run == s.run && d.tick <= t {
				sw.Drops++
			}
		}
		if len(sw.Rules) > 0 || len(sw.Pending) > 0 || sw.Drops > 0 {
			snap.Switches = append(snap.Switches, sw)
		}
	}
	for _, l := range s.links {
		for i := len(l.points) - 1; i >= 0; i-- {
			p := l.at(i)
			if p.run == s.run && p.tick <= t {
				snap.Links = append(snap.Links, LinkSnap{Link: l.name, Capacity: l.cap, Rate: p.total, Since: p.tick})
				break
			}
		}
	}
	for _, k := range s.order {
		u := s.updates[k]
		if u.run != s.run || u.planned > t {
			continue
		}
		status, sws := s.classify(u, t)
		ov := UpdateOverlay{
			Run: u.run, ID: u.ID, Tenant: u.Tenant, Flow: u.Flow, Key: u.Key,
			Kind: u.Kind, Method: u.Method, Status: status, PlannedAt: u.planned,
		}
		for _, d := range sws {
			if d.State != "applied" {
				ov.PendingSwitches = append(ov.PendingSwitches, d.Switch)
			}
		}
		snap.Updates = append(snap.Updates, ov)
	}
	return snap
}

// ruleAsOf returns the newest rule change of the given run at or before
// tick t.
func ruleAsOf(changes []ruleChange, run int, t int64) (ruleChange, bool) {
	for i := len(changes) - 1; i >= 0; i-- {
		c := changes[i]
		if c.run == run && c.tick <= t {
			return c, true
		}
	}
	return ruleChange{}, false
}

// pendingAsOf reconstructs the timed FlowMods a switch held unapplied
// at tick t: live pending entries received by then, plus already
// applied changes whose receive/apply window straddles t (that is what
// makes past-tick snapshots honest about in-flight state). They are
// listed by key, then by activation tick.
func pendingAsOf(st *swState, run int, t int64) []PendingSnap {
	var out []PendingSnap
	for _, r := range st.keys {
		from := len(out)
		if p := r.pending; r.hasPending && p.recv <= t {
			out = append(out, PendingSnap{Key: r.key, At: p.at, Next: p.next, Received: p.recv})
		}
		for _, c := range r.rules {
			if c.run == run && c.recv > 0 && c.recv <= t && c.tick > t {
				out = append(out, PendingSnap{Key: r.key, At: c.tick, Next: c.next, Received: c.recv})
			}
		}
		slices.SortStableFunc(out[from:], func(a, b PendingSnap) int { return cmp.Compare(a.At, b.At) })
	}
	return out
}

// TimelinePoint is one utilization sample on a link timeline.
type TimelinePoint struct {
	At    int64 `json:"at"`
	Total int64 `json:"total"`
}

// Timeline is the GET /links/{from}/{to}/timeline body: the current
// run's utilization samples for one link from tick Since on. Source
// reports where the points came from: "ring" when the in-memory window
// covered the request, "ring+journal" when older points were replayed
// from the journal. EvictedPoints counts ring evictions that could not
// be backfilled (no journal configured).
type Timeline struct {
	Link          string          `json:"link"`
	Run           int             `json:"run"`
	Capacity      int64           `json:"capacity"`
	Since         int64           `json:"since"`
	Source        string          `json:"source"`
	Points        []TimelinePoint `json:"points"`
	EvictedPoints int             `json:"evicted_points,omitempty"`
}

// LinkTimeline builds the timeline for one link. ok is false when the
// store has never seen the link (the caller decides whether the name is
// valid topology-wise).
func (s *Store) LinkTimeline(link string, since int64) (Timeline, bool) {
	s.mu.Lock()
	l := s.lkByName[link]
	tl := Timeline{Link: link, Run: s.run, Since: since, Source: "ring", Points: []TimelinePoint{}}
	if l == nil {
		s.mu.Unlock()
		return tl, false
	}
	tl.Capacity = l.cap
	var ringOldest int64 = -1
	for i := range l.points {
		p := l.at(i)
		if p.run != s.run {
			continue
		}
		if ringOldest < 0 {
			ringOldest = p.tick
		}
		if p.tick >= since {
			tl.Points = append(tl.Points, TimelinePoint{At: p.tick, Total: p.total})
		}
	}
	evicted := l.evicted
	dir := s.o.JournalDir
	s.mu.Unlock()

	if evicted > 0 && (ringOldest < 0 || since < ringOldest) {
		if dir == "" {
			tl.EvictedPoints = evicted
			return tl, true
		}
		// The ring no longer covers the requested window: replay the
		// journal for the final run's older samples and splice them in
		// front of the retained points.
		older := replayLinkPoints(dir, link, since, ringOldest)
		if len(older) > 0 {
			tl.Points = append(older, tl.Points...)
			tl.Source = "ring+journal"
		}
	}
	return tl, true
}
