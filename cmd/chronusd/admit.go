package main

// The daemon side of the admission pipeline: POST /update no longer
// calls the solver inline — every request is enqueued on the admit
// engine, which reserves link capacity in the shared ledger, plans
// disjoint updates in parallel and batches conflicting ones through
// the joint validator. The handler stays synchronous by default
// (submit, then wait for the terminal state), so existing clients keep
// their one-shot semantics; {"async": true} returns 202 with the
// admission id to poll on GET /updates/{id}.

import (
	"fmt"
	"net/http"
	"slices"
	"strings"

	chronus "github.com/chronus-sdn/chronus"
	"github.com/chronus-sdn/chronus/internal/admit"
	"github.com/chronus-sdn/chronus/internal/graph"
	"github.com/chronus-sdn/chronus/internal/health"
	"github.com/chronus-sdn/chronus/internal/obs"
)

// updateRequest is the POST /update body. The zero value (or just
// {"method": ...}) keeps the legacy behavior: execute the daemon's
// default aggregate-flow migration. Setting flow/init/fin instead
// submits a plan-only tenant update through the admission pipeline.
type updateRequest struct {
	Method   string   `json:"method"`
	Async    bool     `json:"async"`
	Tenant   string   `json:"tenant"`
	Flow     string   `json:"flow"`
	Demand   int64    `json:"demand"`
	Init     []string `json:"init"`
	Fin      []string `json:"fin"`
	Priority int      `json:"priority"`
}

// admitRequest translates the HTTP body into an admission request.
func (s *server) admitRequest(req *updateRequest) (admit.Request, error) {
	tenant := req.Tenant
	if tenant == "" {
		tenant = "default"
	}
	method := strings.ToLower(req.Method)
	if method == "" {
		method = "chronus"
	}
	if req.Flow == "" {
		// The legacy one-shot migration of the emulated aggregate flow:
		// executed on the data plane, with its real link footprint held
		// in the ledger for the duration. An unknown method is refused
		// here, before it can claim the migration.
		if names := chronus.Schemes(); method != "tp" && !slices.Contains(names, method) {
			return admit.Request{}, fmt.Errorf("unknown method %q (want tp or a scheme: %s)", method, strings.Join(names, ", "))
		}
		return admit.Request{
			Tenant:   tenant,
			Flow:     s.flow.Name,
			Demand:   s.in.Demand,
			Init:     s.in.Init,
			Fin:      s.in.Fin,
			Priority: req.Priority,
			Execute:  true,
			Method:   method,
		}, nil
	}
	init, err := s.resolvePath(req.Init)
	if err != nil {
		return admit.Request{}, fmt.Errorf("init: %w", err)
	}
	fin, err := s.resolvePath(req.Fin)
	if err != nil {
		return admit.Request{}, fmt.Errorf("fin: %w", err)
	}
	return admit.Request{
		Tenant:   tenant,
		Flow:     req.Flow,
		Demand:   graph.Capacity(req.Demand),
		Init:     init,
		Fin:      fin,
		Priority: req.Priority,
		Method:   method,
	}, nil
}

// resolvePath maps switch names to a path on the daemon's topology.
func (s *server) resolvePath(names []string) (graph.Path, error) {
	if len(names) < 2 {
		return nil, fmt.Errorf("want at least 2 switch names, got %d", len(names))
	}
	p := make(graph.Path, len(names))
	for i, name := range names {
		id := s.in.G.Lookup(name)
		if id == chronus.Invalid {
			return nil, fmt.Errorf("unknown switch %q", name)
		}
		p[i] = id
	}
	return p, nil
}

// executeAdmitted is the admit engine's executor: it runs the legacy
// update path — root span, solve, timed/two-phase/barrier execution,
// settling advance, cost attribution — for an Execute-flagged update
// that reached the head of its wave, and files everything on the record
// handleUpdate created for it.
func (s *server) executeAdmitted(u *admit.Update) (obs.SpanID, error) {
	s.mu.Lock()
	rec := s.costs[u.ID]
	s.mu.Unlock()
	s.beginCost(rec)
	root, err := s.executeUpdate(rec, u.ID, u.Req.Tenant, u.Req.Method)
	if err != nil {
		s.endCost(rec, root, u.Req.Method, "error")
		return root, err
	}
	// Let the transition complete, then record ground truth for the
	// handler's response.
	s.tb.AdvanceBy(chronus.SimTime(2 * (s.in.Init.Delay(s.in.G) + s.in.Fin.Delay(s.in.G))))
	var drops float64
	s.tb.Do(func() { drops = s.tb.Net.TotalDrops() })
	s.endCost(rec, root, u.Req.Method, "ok")
	s.mu.Lock()
	rec.now, rec.congested = int64(s.tb.Now()), s.tb.Net.CongestedLinks()
	rec.overloadTicks, rec.drops = int64(s.tb.Net.TotalOverloadTicks()), drops
	s.mu.Unlock()
	return root, nil
}

// claimedLocked reports whether an execute update holds the daemon's one
// migration of the aggregate flow: it was armed, or it has not settled
// yet. One refused or failed before it was armed gives the claim back.
// Callers hold s.mu.
func (s *server) claimedLocked() bool {
	for id, rec := range s.costs {
		v, _ := s.admit.View(id)
		if rec.armed || (v.State != string(admit.StateRefused) && v.State != string(admit.StateFailed)) {
			return true
		}
	}
	return false
}

// handleQueue serves GET /queue: the admission queue, per-tenant
// accounting and the capacity ledger's utilization.
func (s *server) handleQueue(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.admit.Snapshot())
}

// queueAdapter feeds the admit engine's snapshot to the health rules.
type queueAdapter struct{ e *admit.Engine }

func (q queueAdapter) QueueHealth() health.QueueStats {
	snap := q.e.Snapshot()
	out := health.QueueStats{
		Depth:            snap.Depth,
		Cap:              snap.Cap,
		OldestWaitTicks:  snap.OldestWaitTicks,
		SaturationStreak: snap.SaturationStreak,
	}
	for _, t := range snap.Tenants {
		out.Tenants = append(out.Tenants, health.TenantQueue{
			Tenant:      t.Tenant,
			Submitted:   t.Submitted,
			Refused:     t.Refused,
			Preempted:   t.Preempted,
			MaxPriority: t.MaxPriority,
		})
	}
	return out
}
