package main

import (
	"context"
	"fmt"
	"math/rand"

	chronus "github.com/chronus-sdn/chronus"
	"github.com/chronus-sdn/chronus/internal/admit"
	"github.com/chronus-sdn/chronus/internal/graph"
	"github.com/chronus-sdn/chronus/internal/obs"
	"github.com/chronus-sdn/chronus/internal/topo"
)

const (
	churnPods = 16
	// churnTopoSeed draws the pods. The topology is the workload's, the
	// same for every --seed, which draws the requests: sixteen random
	// pods differ enough from draw to draw to move allocation per burst
	// by +-10 %, and a benchmark of the admission path should report the
	// engine, not which pods it was dealt.
	churnTopoSeed = 20170605
	churnPodSize  = 12
	churnBurst    = 8
	churnHoldStep = 5 // every fifth update holds its reservation open
	// churnProcs is the engine's planner fan-out: two, so that waves go
	// through the par pool rather than the serialized reference path,
	// whatever GOMAXPROCS is.
	churnProcs = 2
)

// churnPod is one link-disjoint region of the merged topology: a random
// instance re-rooted into the shared graph (expt.soakTopology's shape).
type churnPod struct{ init, fin graph.Path }

// admitChurn drives the admission pipeline with plan-only tenant
// updates: one op is a burst of eight submissions, a wait on each, and
// the completion of the previous burst's holds. Sixteen pods repeat
// through the whole op list, so the scheme caches are warm by
// construction and two updates of one burst can meet in one pod, which
// sends them through the joint validator.
type admitChurn struct {
	g      *graph.Graph
	pods   []churnPod
	bursts [][]admit.Request
	hash   string

	reg    *obs.Registry
	tracer *obs.Tracer
	engine *admit.Engine
	vt     int64
	base   map[string]int64
	held   []uint64
	seq    uint64
	waves  uint64
}

// churnPodParams shapes a pod as expt.soakPodParams does: demand 4 on
// mostly slack links, so that several unit-demand updates share a pod,
// and short delays, so that drains are cheap.
func churnPodParams() topo.RandomParams {
	p := topo.DefaultRandomParams(churnPodSize)
	p.Demand = 4
	p.TightFraction = 0.25
	p.MaxDelay = 3
	return p
}

func (w *admitChurn) setup(seed int64, n int, rec *recorder) error {
	rng := rand.New(rand.NewSource(seed))
	h := newCorpusHash()
	rec.layer("topo.corpus_gen", func() {
		w.g = graph.New()
		topoRng := rand.New(rand.NewSource(churnTopoSeed))
		for p := 0; p < churnPods; p++ {
			in := topo.RandomInstance(topoRng, churnPodParams())
			h.add(in)
			remap := make([]graph.NodeID, in.G.NumNodes())
			for _, id := range in.G.Nodes() {
				remap[id] = w.g.AddNode(fmt.Sprintf("p%d.%s", p, in.G.Name(id)))
			}
			for _, l := range in.G.Links() {
				w.g.MustAddLink(remap[l.From], remap[l.To], l.Cap, l.Delay)
			}
			w.pods = append(w.pods, churnPod{init: remapPath(in.Init, remap), fin: remapPath(in.Fin, remap)})
		}
		// One burst more than ops: the last is the warm-up's.
		for b := 0; b <= n; b++ {
			w.bursts = append(w.bursts, w.burst(rng, b))
		}
	})
	for _, burst := range w.bursts {
		for _, r := range burst {
			fmt.Fprintf(h.h, "%s %d %v %v %d %v;", r.Flow, r.Demand, r.Init, r.Fin, r.Priority, r.Hold)
		}
	}
	w.hash = h.sum()
	w.reset()
	return nil
}

// burst draws one burst's requests: unit demand, either direction, a
// spread of priorities. At most two updates of a burst share a pod and
// at most one of them holds, so a pod never carries more than three
// reservations at once (two of this burst, one hold of the last). Pod
// links have capacity >= 4: a migrating flow may need its demand twice
// on a link both its paths use, its pod-mates once each, which fits, so
// neither the ledger nor the joint planner refuses anything.
func (w *admitChurn) burst(rng *rand.Rand, b int) []admit.Request {
	perPod := make(map[int]int)
	holding := make(map[int]bool)
	reqs := make([]admit.Request, 0, churnBurst)
	for len(reqs) < churnBurst {
		i := b*churnBurst + len(reqs)
		hold := i%churnHoldStep == 0
		p := rng.Intn(len(w.pods))
		if perPod[p] >= 2 || (hold && holding[p]) {
			continue
		}
		perPod[p]++
		holding[p] = holding[p] || hold
		init, fin := w.pods[p].init, w.pods[p].fin
		if rng.Intn(2) == 0 {
			init, fin = fin, init
		}
		reqs = append(reqs, admit.Request{
			Tenant:   fmt.Sprintf("tenant-%d", p%4),
			Flow:     fmt.Sprintf("u%d", i),
			Demand:   1,
			Init:     init,
			Fin:      fin,
			Priority: rng.Intn(3),
			Hold:     hold,
		})
	}
	return reqs
}

// reset starts a fresh engine, so that op 0 of every round meets the
// same empty queue and ledger whatever the warm-up did.
func (w *admitChurn) reset() {
	w.reg = obs.NewRegistry()
	chronus.RegisterAllMetrics(w.reg)
	w.tracer = obs.NewTracer(obs.TracerOptions{})
	w.vt = 0
	w.engine = admit.New(w.g, admit.Options{
		Procs: churnProcs,
		Obs:   w.reg,
		Trace: w.tracer,
		Now:   func() int64 { return w.vt },
	})
	w.base = map[string]int64{}
	w.held, w.seq, w.waves = nil, 0, 0
}

func (w *admitChurn) fingerprint() string { return w.hash }

func (w *admitChurn) events() []chronus.TraceEvent { return w.tracer.Events(0) }

func (w *admitChurn) close() error { return nil }

func (w *admitChurn) run(i int, rec *recorder) opSample {
	warmup := i == len(w.bursts)-1
	burst := w.bursts[i]
	ids := make([]uint64, 0, len(burst))
	views := make([]admit.UpdateView, 0, len(burst))
	var err error

	rec.begin(i)
	rec.layer("admit.submit", func() {
		for _, req := range burst {
			w.vt++
			var id uint64
			if id, err = w.engine.Submit(req); err != nil {
				return
			}
			ids = append(ids, id)
		}
	})
	if err == nil {
		rec.layer("admit.wait", func() {
			w.vt++
			for _, id := range ids {
				var v admit.UpdateView
				if v, err = w.engine.Wait(context.Background(), id); err != nil {
					return
				}
				views = append(views, v)
			}
		})
	}
	completed := len(w.held)
	rec.layer("admit.complete", func() {
		w.vt++
		for _, id := range w.held {
			w.engine.Complete(id)
		}
	})
	s := rec.end()

	w.held = w.held[:0]
	var planned, refused, sizes, makespan int64
	for _, v := range views {
		switch admit.State(v.State) {
		case admit.StateExecuting:
			w.held = append(w.held, v.ID)
			fallthrough
		case admit.StateDone:
			planned++
			sizes += int64(v.ComponentSize)
			if sched, ok := w.engine.ScheduleOf(v.ID); ok {
				makespan += int64(sched.Makespan())
			}
		default:
			refused++
			if s.Failed == "" {
				s.Failed = v.State + ": " + v.Reason
			}
		}
	}
	if err != nil {
		s.Failed = err.Error()
	}
	if planned > 0 {
		s.Makespan = makespan / planned
	}
	snap := w.engine.Snapshot()
	next := registryCounts(w.reg)
	addDeltas(s.Counts, next, w.base)
	w.base = next
	if s.Counts["ledger_overcommit"] > 0 && s.Failed == "" {
		s.Failed = "ledger over-committed"
	}
	evs := w.tracer.Events(w.seq)
	w.seq = lastSeq(evs, w.seq)
	s.Counts["events"] = int64(len(evs))
	s.Counts["submitted"] = int64(len(ids))
	s.Counts["planned"] = planned
	s.Counts["refused"] = refused
	s.Counts["component_size_sum"] = sizes
	s.Counts["holds_completed"] = int64(completed)
	s.Counts["waves"] = int64(snap.Waves - w.waves)
	w.waves = snap.Waves
	if warmup {
		w.reset()
	}
	return s
}
