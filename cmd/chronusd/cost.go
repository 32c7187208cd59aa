package main

import (
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"time"

	chronus "github.com/chronus-sdn/chronus"
	"github.com/chronus-sdn/chronus/internal/admit"
	"github.com/chronus-sdn/chronus/internal/obs"
)

// Per-update cost attribution: every executed update is metered — CPU
// time, heap allocations, queue wait — and its span tree is folded into
// per-stage latencies (solve→plan→send→barrier→apply). GET /updates/{id}
// serves the report under the update's admission id; the same stage
// durations feed the chronus_update_stage_seconds{stage} histograms,
// whose exposition carries the update's root span id as an exemplar
// comment.

// tickSeconds converts virtual ticks to nominal wall seconds for the
// stage histograms. The emulation has no native wall mapping — ticks
// are the deterministic coordinate — so the daemon pins the paper's
// testbed scale of one millisecond per tick; the virtual-tick truth
// stays available in the cost report's *_ticks fields.
const tickSeconds = 1e-3

// updateStages maps span ops to the pipeline stage they account for,
// in pipeline order.
var updateStages = []struct {
	stage string
	ops   []string
}{
	{"solve", []string{obs.OpSolve}},
	{"plan", []string{"plan"}},
	{"send", []string{obs.OpCtlSend}},
	{"barrier", []string{obs.OpCtlBarrier, obs.EvSwBarrier}},
	{"apply", []string{obs.EvSwApply}},
}

// stageCost is one pipeline stage's share of an update: the stage span
// is [StartTick, EndTick] over all contributing spans, Ticks its
// length, Spans how many spans contributed.
type stageCost struct {
	Stage     string  `json:"stage"`
	StartTick int64   `json:"start_tick"`
	EndTick   int64   `json:"end_tick"`
	Ticks     int64   `json:"ticks"`
	Seconds   float64 `json:"seconds"`
	Spans     int     `json:"spans"`
}

// updateCost is the full per-update cost report.
type updateCost struct {
	Span    uint64 `json:"span"`
	Method  string `json:"method"`
	Outcome string `json:"outcome"`

	// Control-plane resource attribution, measured across the executor
	// (the daemon executes one update at a time, so process-wide deltas
	// are this update's); the queue wait runs from the request's arrival.
	QueueWaitNs int64  `json:"queue_wait_ns"`
	WallNs      int64  `json:"wall_ns"`
	CPUNs       int64  `json:"cpu_ns"`
	AllocBytes  uint64 `json:"alloc_bytes"`
	Mallocs     uint64 `json:"mallocs"`

	// Virtual-time window of the root update span and the per-stage
	// breakdown derived from its span tree.
	VTStart int64       `json:"vt_start"`
	VTEnd   int64       `json:"vt_end"`
	Stages  []stageCost `json:"stages"`
}

// updateRecord is all the daemon keeps of one execute update, under its
// admission id in server.costs: handleUpdate files it with the arrival
// time, the executor adds meters, cost report and data-plane outcome.
// The meters are the executor's alone; server.mu guards the rest.
type updateRecord struct {
	arrived time.Time
	// armed: the executor armed health for its plan, as every branch does
	// before its intent and first FlowMod, so the migration is spent.
	armed bool
	cost  *updateCost

	// The data plane after the settling advance, for the sync response.
	now, overloadTicks int64
	congested          int
	drops              float64

	// Meters at execution start; cursor is the fold cursor the spans follow.
	cursor     uint64
	started    time.Time
	cpuNs      int64
	allocBytes uint64
	mallocs    uint64
}

// beginCost folds everything recorded so far, then snapshots the
// meters at execution start; started-arrived is the queue wait (decode,
// admission and the wave ahead of the update).
func (s *server) beginCost(rec *updateRecord) {
	rec.cursor = s.pull()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rec.started = time.Now()
	rec.cpuNs = processCPUNs()
	rec.allocBytes, rec.mallocs = ms.TotalAlloc, ms.Mallocs
}

// endCost computes the deltas, folds in the span-tree stage breakdown,
// files the report on the record, and feeds the stage histograms (with
// the span-id exemplar).
func (s *server) endCost(rec *updateRecord, root chronus.SpanID, method, outcome string) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cost := &updateCost{
		Span:        uint64(root),
		Method:      method,
		Outcome:     outcome,
		QueueWaitNs: rec.started.Sub(rec.arrived).Nanoseconds(),
		WallNs:      time.Since(rec.started).Nanoseconds(),
		CPUNs:       processCPUNs() - rec.cpuNs,
		AllocBytes:  ms.TotalAlloc - rec.allocBytes,
		Mallocs:     ms.Mallocs - rec.mallocs,
	}
	s.attachStages(cost, root, rec.cursor)
	for _, st := range cost.Stages {
		series := fmt.Sprintf(`chronus_update_stage_seconds{stage=%q}`, st.Stage)
		s.stageHist(st.Stage).Observe(st.Seconds)
		s.reg.Exemplar(series, fmt.Sprintf("span_id=%d value=%g", uint64(root), st.Seconds))
	}
	s.mu.Lock()
	rec.cost = cost
	s.mu.Unlock()
}

// stageHist returns the stage-labelled histogram, with bucket bounds
// spanning sub-tick stages to multi-second schedules.
func (s *server) stageHist(stage string) *obs.Histogram {
	return s.reg.Histogram(
		fmt.Sprintf(`chronus_update_stage_seconds{stage=%q}`, stage),
		[]float64{.001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10})
}

// registerStageMetrics pre-registers every stage series so the
// exposition is complete before the first update.
func (s *server) registerStageMetrics() {
	s.reg.Help("chronus_update_stage_seconds",
		"Per-update pipeline stage latency (solve, plan, send, barrier, apply) in nominal seconds (1 tick = 1 ms).")
	for _, st := range updateStages {
		s.stageHist(st.stage)
	}
}

// attachStages reconstructs the update's span tree from the events
// recorded since cursor (tracePage fills what the ring evicted from the
// journal) and folds each stage's spans into one interval.
func (s *server) attachStages(cost *updateCost, root chronus.SpanID, cursor uint64) {
	forest := chronus.BuildSpanForest(s.tracePage(cursor, 0).Events)
	var node *chronus.SpanNode
	for _, n := range forest {
		if n.ID == root {
			node = n
			break
		}
	}
	if node == nil {
		return
	}
	// The window opens with the root span and closes with the last span
	// anywhere in the tree: time-triggered activations outlive the
	// control-plane root span by design.
	cost.VTStart, cost.VTEnd = node.Start, node.End
	node.Walk(func(n *chronus.SpanNode) {
		if n.End > cost.VTEnd {
			cost.VTEnd = n.End
		}
	})
	opStage := make(map[string]int, 8)
	for i, st := range updateStages {
		for _, op := range st.ops {
			opStage[op] = i
		}
	}
	found := make([]*stageCost, len(updateStages))
	node.Walk(func(n *chronus.SpanNode) {
		i, ok := opStage[n.Op]
		if !ok {
			return
		}
		sc := found[i]
		if sc == nil {
			sc = &stageCost{Stage: updateStages[i].stage, StartTick: n.Start, EndTick: n.End}
			found[i] = sc
		}
		if n.Start < sc.StartTick {
			sc.StartTick = n.Start
		}
		if n.End > sc.EndTick {
			sc.EndTick = n.End
		}
		sc.Spans++
	})
	for _, sc := range found {
		if sc == nil {
			continue
		}
		sc.Ticks = sc.EndTick - sc.StartTick
		sc.Seconds = float64(sc.Ticks) * tickSeconds
		cost.Stages = append(cost.Stages, *sc)
	}
}

// handleUpdates serves GET /updates/{id}: the admission engine's
// lifecycle view of the update (queued/planning/executing/done/refused/
// failed), with the cost report attached once an execute update has one.
func (s *server) handleUpdates(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad update id: %w", err))
		return
	}
	view, ok := s.admit.View(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no update with id %d", id))
		return
	}
	resp := struct {
		admit.UpdateView
		Cost *updateCost `json:"cost,omitempty"`
	}{UpdateView: view}
	s.mu.Lock()
	if rec := s.costs[id]; rec != nil {
		resp.Cost = rec.cost
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}
