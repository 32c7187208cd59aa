package main

import (
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	chronus "github.com/chronus-sdn/chronus"
	"github.com/chronus-sdn/chronus/internal/admit"
	"github.com/chronus-sdn/chronus/internal/obs"
)

// Per-update cost attribution: every POST /update is metered — CPU
// time, heap allocations, queue wait — and its
// span tree is folded into per-stage latencies
// (solve→plan→send→barrier→apply). GET /updates/{span-id} serves the
// report; the same stage durations feed the
// chronus_update_stage_seconds{stage} histograms, whose exposition
// carries the update's span-id as an exemplar comment.

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

	// Control-plane resource attribution, measured across the whole
	// POST /update handler (the daemon executes one update at a time,
	// so process-wide deltas are this update's).
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

// costMeter snapshots the process counters an update's cost is the
// delta of.
type costMeter struct {
	arrived    time.Time
	started    time.Time
	cpuNs      int64
	allocBytes uint64
	mallocs    uint64
}

// beginCost snapshots the meters at execution start; arrived is when
// the HTTP request entered the handler, so started-arrived is the
// queue wait (decode + serialization on the update lock).
func (s *server) beginCost(arrived time.Time) costMeter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return costMeter{
		arrived:    arrived,
		started:    time.Now(),
		cpuNs:      processCPUNs(),
		allocBytes: ms.TotalAlloc,
		mallocs:    ms.Mallocs,
	}
}

// endCost computes the deltas, folds in the span-tree stage breakdown,
// stores the report, and feeds the stage histograms (with the span-id
// exemplar).
func (s *server) endCost(m costMeter, root chronus.SpanID, method, outcome string) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cost := &updateCost{
		Span:        uint64(root),
		Method:      method,
		Outcome:     outcome,
		QueueWaitNs: m.started.Sub(m.arrived).Nanoseconds(),
		WallNs:      time.Since(m.started).Nanoseconds(),
		CPUNs:       processCPUNs() - m.cpuNs,
		AllocBytes:  ms.TotalAlloc - m.allocBytes,
		Mallocs:     ms.Mallocs - m.mallocs,
	}
	s.attachStages(cost, root)
	for _, st := range cost.Stages {
		series := fmt.Sprintf(`chronus_update_stage_seconds{stage=%q}`, st.Stage)
		s.stageHist(st.Stage).Observe(st.Seconds)
		s.reg.Exemplar(series, fmt.Sprintf("span_id=%d value=%g", uint64(root), st.Seconds))
	}
	s.mu.Lock()
	s.costs[uint64(root)] = cost
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

// attachStages reconstructs the update's span tree from the trace ring
// (falling back to the journal when the ring has already evicted it)
// and folds each stage's spans into one interval.
func (s *server) attachStages(cost *updateCost, root chronus.SpanID) {
	forest := chronus.BuildSpanForest(s.traceEvents())
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

// traceEvents returns the ring's events, extended with any older
// events only the journal still holds (ring eviction must not cost an
// update its stage breakdown).
func (s *server) traceEvents() []chronus.TraceEvent {
	ring := s.tracer.Events(0)
	if s.journal == nil || s.tracer.Dropped() == 0 {
		return ring
	}
	var oldest uint64
	if len(ring) > 0 {
		oldest = ring[0].Seq
	}
	older := s.journalEvents(0, oldest)
	if len(older) == 0 {
		return ring
	}
	return append(older, ring...)
}

// handleUpdates serves GET /updates/{id}. Admission ids resolve to the
// update's lifecycle view (queued/planning/executing/done/refused/
// failed), with the cost report attached once the update has a root
// span; root span ids keep resolving to the bare cost report, so
// clients that saved a span id from POST /update keep working. 404
// only for ids known to neither space.
func (s *server) handleUpdates(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad update id: %w", err))
		return
	}
	if view, ok := s.admit.View(id); ok {
		resp := struct {
			admit.UpdateView
			Cost *updateCost `json:"cost,omitempty"`
		}{UpdateView: view}
		if view.Span != 0 {
			s.mu.Lock()
			resp.Cost = s.costs[view.Span]
			s.mu.Unlock()
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}
	s.mu.Lock()
	cost, ok := s.costs[id]
	ids := make([]uint64, 0, len(s.costs))
	for k := range s.costs {
		ids = append(ids, k)
	}
	s.mu.Unlock()
	if !ok {
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		parts := make([]string, len(ids))
		for i, v := range ids {
			parts[i] = strconv.FormatUint(v, 10)
		}
		writeErr(w, http.StatusNotFound, fmt.Errorf("no update with span id %d (known: %s)", id, strings.Join(parts, ", ")))
		return
	}
	writeJSON(w, http.StatusOK, cost)
}
