package main

// The observed-state surface: GET /state (time-travel snapshots), GET
// /drift (desired-vs-observed classification) and the per-link
// timeline endpoint, all served from the internal/state store. The
// store folds the same trace stream the journal records, pulled
// cursor-style on read by server.pull (like the clock estimator and
// health engine) so the update hot path never pays for it.

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	chronus "github.com/chronus-sdn/chronus"
	"github.com/chronus-sdn/chronus/internal/health"
	"github.com/chronus-sdn/chronus/internal/state"
)

// parseTick reads one non-negative tick query parameter; absent yields
// the def value.
func parseTick(r *http.Request, name string, def int64) (int64, error) {
	q := r.URL.Query().Get(name)
	if q == "" {
		return def, nil
	}
	v, err := strconv.ParseInt(q, 10, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad %s: want a non-negative tick", name)
	}
	return v, nil
}

// handleState serves the observed-state snapshot. ?at=<tick> time
// travels: the tables, pending FlowMods, link rates and update
// overlays are reconstructed as of that tick of the current run. In
// deterministic (virtual, no-wall) mode the response bytes are fixed
// per seed.
func (s *server) handleState(w http.ResponseWriter, r *http.Request) {
	at, err := parseTick(r, "at", -1)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	s.pull()
	writeJSON(w, http.StatusOK, s.state.StateBody(at))
}

// handleDrift serves the desired-vs-observed drift report: every
// tracked update's planner intent diffed against the observed tables,
// classified converging / stranded / diverged / converged with
// per-switch evidence. Updates recorded by earlier daemon runs on the
// same journal directory are included — a half-executed schedule whose
// daemon died shows up stranded here after the restart.
func (s *server) handleDrift(w http.ResponseWriter, r *http.Request) {
	s.pull()
	writeJSON(w, http.StatusOK, s.state.DriftBody())
}

// handleLinkTimeline serves one link's utilization timeseries from the
// state store's ring, backfilled from the journal when ?since= reaches
// further back than the ring retains.
func (s *server) handleLinkTimeline(w http.ResponseWriter, r *http.Request) {
	since, err := parseTick(r, "since", 0)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	name := r.PathValue("from") + ">" + r.PathValue("to")
	if _, ok := s.linkCaps[name]; !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no link %q", name))
		return
	}
	s.pull()
	tl, _ := s.state.LinkTimeline(name, since)
	if tl.Capacity == 0 {
		// The link exists but has not carried traffic yet; report its
		// provisioned capacity rather than zero.
		tl.Capacity = s.linkCaps[name]
	}
	writeJSON(w, http.StatusOK, tl)
}

// driftAdapter feeds the state store's drift report to the health
// rules (the same attach-source pattern as queueAdapter). It folds
// nothing itself: health calls it from Verdict with its lock held, and
// every Verdict caller has just pulled.
type driftAdapter struct{ s *server }

func (d driftAdapter) DriftHealth() health.DriftStats {
	rep := d.s.state.DriftBody()
	out := health.DriftStats{Tracked: rep.Tracked}
	for _, u := range rep.Updates {
		switch u.Status {
		case "stranded":
			out.Stranded++
		case "diverged":
			out.Diverged++
		case "converging":
			out.Converging++
		default:
			continue
		}
		if u.DriftAgeTicks > out.WorstAgeTicks {
			out.WorstAgeTicks = u.DriftAgeTicks
		}
		out.Updates = append(out.Updates, health.DriftUpdate{
			Update:     fmt.Sprintf("%d/%d", u.Run, u.ID),
			Status:     u.Status,
			AgeTicks:   u.DriftAgeTicks,
			SlackTicks: u.SlackTicks,
		})
	}
	return out
}

// emitIntent records an execute-update's planner-intended end-state
// (see state.Intent.Emit) before its first FlowMod is sent; sched and
// asOf select the switches and their due ticks as state.Promises reads
// them.
func (s *server) emitIntent(id uint64, tenant, method, key string, slack int64, sched *chronus.Schedule, asOf int64) {
	state.Intent{
		ID: id, Tenant: tenant, Flow: s.flow.Name, Key: key, Kind: "execute", Method: method,
		Slack:    slack,
		Switches: state.Promises(s.in.G, s.in.Fin, sched, asOf),
	}.Emit(s.tracer, int64(s.tb.Now()))
}

// minPlanSlack extracts the tightest per-switch slack of a plan — the
// tolerance the drift age is judged against.
func minPlanSlack(plan health.Plan) int64 {
	var min int64
	for i, sw := range plan.Switches {
		if i == 0 || sw.SlackTicks < min {
			min = sw.SlackTicks
		}
	}
	return min
}

// errBadQuery is the shared 400 for mutually exclusive query params.
var errBadQuery = errors.New("at and since are mutually exclusive")
