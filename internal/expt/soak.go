package expt

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/chronus-sdn/chronus/internal/admit"
	"github.com/chronus-sdn/chronus/internal/batch"
	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/graph"
	"github.com/chronus-sdn/chronus/internal/metrics"
	"github.com/chronus-sdn/chronus/internal/obs"
	"github.com/chronus-sdn/chronus/internal/topo"
)

// soakPod is one link-disjoint region of the soak topology: a random
// instance re-rooted into the shared graph, whose two paths soak
// updates migrate between (in either direction).
type soakPod struct {
	init, fin graph.Path
	demand    graph.Capacity
}

// SoakResult is the admission-pipeline soak: one engine on a pod-merged
// topology, Config.SoakUpdates tenant updates all enqueued up front and
// drained wave by wave with capacity holds opening and closing between
// waves. All columns except the wall-clock throughput arm are
// deterministic under the config seed.
type SoakResult struct {
	Pods, Switches, Updates int

	// Terminal-state tally after the full drain.
	Done, Refused, Failed int
	HoldsCompleted        int
	// MaxInFlight is the peak count of registered, non-terminal updates
	// (every update is enqueued before the first wave plans).
	MaxInFlight int
	Waves       uint64

	// Violations counts joint-validation failures over the sets of
	// concurrently-held schedules, checked after every wave; Overcommits
	// is the ledger's own chronus_admit_ledger_overcommit_total. Both
	// must be zero.
	Violations  int
	Overcommits int64

	// Audited schedules were additionally executed on an emulated
	// testbed with the runtime auditor attached; AuditViolations sums
	// the auditors' verdicts and must be zero.
	Audited         int
	AuditViolations int

	// The disjoint-throughput comparison: SoakRepeats rounds of one
	// update per pod, planned through the engine's conflict-graph
	// pipeline versus composed as one serialized joint batch (the
	// pre-pipeline path, where every update joins a single admitted set
	// and each admission re-validates the whole set). Wall-clock, so —
	// like Fig. 10's seconds — not byte-deterministic.
	PipelineSeconds float64
	BaselineSeconds float64
	Speedup         float64
}

// soakPodParams shapes each pod: mostly slack capacities so several
// small updates can share a pod, short delays to keep drains cheap.
func soakPodParams(n int) topo.RandomParams {
	p := topo.DefaultRandomParams(n)
	p.Demand = 4
	p.TightFraction = 0.25
	p.MaxDelay = 3
	return p
}

// soakTopology merges Config.SoakPods random instances into one shared
// graph, prefixing node names with the pod index. Pods share no links,
// so cross-pod updates are disjoint by construction.
func soakTopology(cfg Config) (*graph.Graph, []soakPod) {
	g := graph.New()
	pods := make([]soakPod, cfg.SoakPods)
	for p := 0; p < cfg.SoakPods; p++ {
		in, _ := topo.Embed(g, topo.RandomInstance(rngFor(cfg, "soak-pod", int64(p)), soakPodParams(cfg.SoakPodSize)), fmt.Sprintf("p%d.", p))
		pods[p] = soakPod{init: in.Init, fin: in.Fin, demand: in.Demand}
	}
	return g, pods
}

// soakRequest draws one tenant update: a random pod, either migration
// direction, a demand within the pod's instance demand, and a spread of
// priorities; every fifth update holds its reservation open across
// waves.
func soakRequest(rng *rand.Rand, pods []soakPod, i int) admit.Request {
	p := rng.Intn(len(pods))
	init, fin := pods[p].init, pods[p].fin
	if rng.Intn(2) == 0 {
		init, fin = fin, init
	}
	return admit.Request{
		Tenant:   fmt.Sprintf("tenant-%d", p%4),
		Flow:     fmt.Sprintf("u%d", i),
		Demand:   1 + graph.Capacity(rng.Intn(int(pods[p].demand))),
		Init:     init,
		Fin:      fin,
		Priority: rng.Intn(3),
		Hold:     i%5 == 0,
	}
}

// soakHold tracks one open capacity hold across waves.
type soakHold struct {
	id   uint64
	wave uint64
}

// Soak drives the admission pipeline at scale: every update is
// submitted before the first wave plans (so the engine holds
// SoakUpdates registered in-flight updates at once), then the queue is
// drained one coalescing window at a time. After each wave the set of
// concurrently-held schedules is re-validated jointly on the real
// graph, and holds older than two waves are completed, crediting the
// ledger for later waves. A sample of admitted schedules is finally
// executed on an emulated testbed under the runtime auditor.
func Soak(cfg Config) (*SoakResult, error) {
	g, pods := soakTopology(cfg)
	reg := obs.NewRegistry()
	var vt int64
	e := admit.New(g, admit.Options{
		QueueCap: cfg.SoakUpdates,
		Procs:    cfg.Procs,
		Obs:      reg,
		Now:      func() int64 { return vt },
	})
	res := &SoakResult{Pods: cfg.SoakPods, Switches: g.NumNodes(), Updates: cfg.SoakUpdates}

	rng := rngFor(cfg, "soak-drive", 0)
	reqs := make(map[uint64]admit.Request, cfg.SoakUpdates)
	var ids []uint64
	for i := 0; i < cfg.SoakUpdates; i++ {
		vt++
		req := soakRequest(rng, pods, i)
		id, err := e.Submit(req)
		if err != nil {
			return nil, fmt.Errorf("soak: submit %d: %w", i, err)
		}
		reqs[id] = req
		ids = append(ids, id)
	}
	if d := e.Snapshot().Depth; d > res.MaxInFlight {
		res.MaxInFlight = d
	}

	var holds []soakHold
	for {
		vt++
		progressed := e.DrainOne()
		snap := e.Snapshot()
		res.Waves = snap.Waves

		// Collect holds that opened this wave and re-validate the whole
		// concurrently-held set against the real capacities.
		known := make(map[uint64]bool, len(holds))
		for _, h := range holds {
			known[h.id] = true
		}
		for _, id := range ids {
			if known[id] {
				continue
			}
			if v, _ := e.View(id); v.State == string(admit.StateExecuting) {
				holds = append(holds, soakHold{id: id, wave: snap.Waves})
			}
		}
		bad, err := soakValidateHolds(g, e, reqs, holds)
		if err != nil {
			return nil, err
		}
		if bad {
			res.Violations++
		}

		// Holds older than two waves complete, crediting their links;
		// once the queue is empty everything outstanding completes.
		keep := holds[:0]
		for _, h := range holds {
			v, _ := e.View(h.id)
			if v.State != string(admit.StateExecuting) {
				continue
			}
			if snap.Waves-h.wave >= 2 || !progressed {
				e.Complete(h.id)
				res.HoldsCompleted++
				continue
			}
			keep = append(keep, h)
		}
		holds = keep
		if !progressed && len(holds) == 0 {
			break
		}
	}

	final := e.Snapshot()
	res.Done = final.States[string(admit.StateDone)]
	res.Refused = final.States[string(admit.StateRefused)]
	res.Failed = final.States[string(admit.StateFailed)]
	res.Overcommits = reg.Counter("chronus_admit_ledger_overcommit_total").Value()
	if u := e.Ledger().Utilization(); u.Holds != 0 || u.ReservedUnits != 0 {
		return nil, fmt.Errorf("soak: ledger dirty after full drain: %+v", u)
	}

	if err := soakAudit(cfg, g, e, reqs, ids, res); err != nil {
		return nil, err
	}
	soakThroughput(cfg, res)
	return res, nil
}

// soakValidateHolds re-validates the currently-held schedules jointly
// on the real graph: the ledger may refuse combinations the validator
// would pass, but must never admit a combination it fails.
func soakValidateHolds(g *graph.Graph, e *admit.Engine, reqs map[uint64]admit.Request, holds []soakHold) (bool, error) {
	var joint []dynflow.FlowUpdate
	for _, h := range holds {
		v, ok := e.View(h.id)
		if !ok || v.State != string(admit.StateExecuting) {
			continue
		}
		s, ok := e.ScheduleOf(h.id)
		if !ok {
			continue
		}
		req := reqs[h.id]
		joint = append(joint, dynflow.FlowUpdate{
			Name: fmt.Sprintf("h%d", h.id),
			In:   &dynflow.Instance{G: g, Demand: req.Demand, Init: req.Init, Fin: req.Fin},
			S:    s,
		})
	}
	if len(joint) == 0 {
		return false, nil
	}
	report, err := dynflow.ValidateJoint(joint)
	if err != nil {
		return false, err
	}
	return !report.OK(), nil
}

// soakAudit executes up to cfg.SoakAudits admitted schedules on a fresh
// emulated testbed each, with the runtime auditor reading the trace.
func soakAudit(cfg Config, g *graph.Graph, e *admit.Engine, reqs map[uint64]admit.Request, ids []uint64, res *SoakResult) error {
	for _, id := range ids {
		if res.Audited >= cfg.SoakAudits {
			break
		}
		v, ok := e.View(id)
		if !ok || v.State != string(admit.StateDone) || len(v.Schedule) == 0 {
			continue
		}
		s, ok := e.ScheduleOf(id)
		if !ok {
			continue
		}
		req := reqs[id]
		in := &dynflow.Instance{G: g, Demand: req.Demand, Init: req.Init, Fin: req.Fin}
		report, err := auditedExecution(in, s, cfg.Seed+int64(id))
		if err != nil {
			return fmt.Errorf("soak: audited execution of update %d: %w", id, err)
		}
		res.Audited++
		res.AuditViolations += report.Violations()
	}
	return nil
}

// soakThroughput times SoakRepeats rounds of one-update-per-pod — fully
// disjoint — through the conflict-graph pipeline versus the serialized
// baseline that composes all of them as one joint batch (every
// admission re-validating the whole admitted set, as the pre-pipeline
// update path did).
func soakThroughput(cfg Config, res *SoakResult) {
	g, pods := soakTopology(cfg)
	flows := make([]batch.Flow, len(pods))
	reqs := make([]admit.Request, len(pods))
	for p, pod := range pods {
		flows[p] = batch.Flow{Name: fmt.Sprintf("d%d", p), Demand: 1, Init: pod.init, Fin: pod.fin}
		reqs[p] = admit.Request{Tenant: "d", Flow: flows[p].Name, Demand: 1, Init: pod.init, Fin: pod.fin}
	}

	start := time.Now()
	for r := 0; r < cfg.SoakRepeats; r++ {
		e := admit.New(g, admit.Options{QueueCap: len(reqs) + 1, Procs: cfg.Procs})
		for _, req := range reqs {
			if _, err := e.Submit(req); err != nil {
				return
			}
		}
		e.Drain()
	}
	res.PipelineSeconds = time.Since(start).Seconds() / float64(cfg.SoakRepeats)

	start = time.Now()
	for r := 0; r < cfg.SoakRepeats; r++ {
		if _, _, err := batch.SolveEach(g, flows, batch.Options{Scheme: "chronus"}); err != nil {
			return
		}
	}
	res.BaselineSeconds = time.Since(start).Seconds() / float64(cfg.SoakRepeats)
	if res.PipelineSeconds > 0 {
		res.Speedup = res.BaselineSeconds / res.PipelineSeconds
	}
}

// SoakTable renders the soak run; wall-clock columns last.
func SoakTable(r *SoakResult) *metrics.Table {
	t := &metrics.Table{Header: []string{
		"updates", "pods", "switches", "done", "refused", "failed",
		"holds_done", "max_in_flight", "waves", "violations", "overcommits",
		"audited", "audit_violations", "pipeline_ms", "baseline_ms", "speedup",
	}}
	t.AddRowf(r.Updates, r.Pods, r.Switches, r.Done, r.Refused, r.Failed,
		r.HoldsCompleted, r.MaxInFlight, r.Waves, r.Violations, r.Overcommits,
		r.Audited, r.AuditViolations, r.PipelineSeconds*1e3, r.BaselineSeconds*1e3, r.Speedup)
	return t
}
