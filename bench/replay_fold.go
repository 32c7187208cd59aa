package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"

	chronus "github.com/chronus-sdn/chronus"
	"github.com/chronus-sdn/chronus/internal/audit"
	"github.com/chronus-sdn/chronus/internal/clock"
	"github.com/chronus-sdn/chronus/internal/journal"
	"github.com/chronus-sdn/chronus/internal/obs"
	"github.com/chronus-sdn/chronus/internal/state"
)

// replayUpdates is how many executed timed updates set-up journals: one
// per pod of a merged ten-pod topology, ~4k events with the boot.
const replayUpdates = 10

// replayFold replays one journal, written in set-up, through every
// offline reader: journal.ReadAll, the auditor, the state store (boot
// prefeed, snapshot, drift report, encoded as the daemon serves them),
// the span forest and the clock estimator — `mutp -audit-from` and
// `-state-from` and the daemon's boot path in one op. Every op reads the
// same bytes and must produce the same bytes.
type replayFold struct {
	outDir string
	dir    string
	hash   string
	evs    []chronus.TraceEvent
	// want is the output hash of the first op; every later op must match.
	want string
}

// setup journals one daemon life: a data plane of replayUpdates
// link-disjoint pods (feasible ten-switch instances re-rooted into one
// graph, switch names prefixed by pod), one flow per pod, each migrated
// by a timed chronus schedule. Schedules are solved on the pod's own
// small graph: the scheduler's horizon grows with the node count of the
// graph it is handed, and set-up is not what this workload measures.
func (w *replayFold) setup(seed int64, n int, rec *recorder) error {
	dir, err := os.MkdirTemp(w.outDir, "replay-fold-")
	if err != nil {
		return err
	}
	w.dir = dir
	var local, merged []*chronus.Instance
	var remaps [][]chronus.NodeID
	h := newCorpusHash()
	rec.layer("topo.corpus_gen", func() {
		local = feasibleInstances(rand.New(rand.NewSource(seed)), execTimedSwitches, replayUpdates, nil)
		g := chronus.NewNetwork()
		for k, in := range local {
			h.add(in)
			remap := make([]chronus.NodeID, in.G.NumNodes())
			for _, id := range in.G.Nodes() {
				remap[id] = g.AddNode(fmt.Sprintf("p%d.%s", k, in.G.Name(id)))
			}
			for _, l := range in.G.Links() {
				g.MustAddLink(remap[l.From], remap[l.To], l.Cap, l.Delay)
			}
			remaps = append(remaps, remap)
			merged = append(merged, &chronus.Instance{
				G: g, Demand: in.Demand, Init: remapPath(in.Init, remap), Fin: remapPath(in.Fin, remap),
			})
		}
	})
	w.hash = h.sum()

	p, err := bootPlant(merged[0], seed, plantOptions{JournalDir: dir})
	if err != nil {
		return err
	}
	flows := []chronus.FlowSpec{p.flow}
	for k := 1; k < len(merged); k++ {
		f := chronus.FlowSpec{Name: fmt.Sprintf("agg%d", k), Path: merged[k].Init, Rate: chronus.Rate(merged[k].Demand)}
		if err := p.ctl.Provision(f); err != nil {
			p.close()
			return err
		}
		flows = append(flows, f)
	}
	quiet := newRecorder(false)
	for k := range merged {
		p.in, p.flow = merged[k], flows[k]
		err := p.underRoot("chronus", func(root chronus.SpanID) error {
			res, err := chronus.SolveWith("chronus", local[k], chronus.SchemeOptions{
				Obs: p.reg, Trace: p.tracer, VT: int64(p.tb.Now()), Span: root,
			})
			if err != nil {
				return err
			}
			sched := chronus.NewSchedule(res.Schedule.Start)
			for v, tv := range res.Schedule.Times {
				sched.Set(remaps[k][v], tv)
			}
			return p.fire(uint64(k+1), root, p.shifted(sched), 0, true, quiet)
		})
		if err != nil {
			p.close()
			return fmt.Errorf("journaling update %d: %w", k, err)
		}
	}
	return p.close()
}

func (w *replayFold) fingerprint() string { return w.hash }

func (w *replayFold) events() []chronus.TraceEvent { return w.evs }

func (w *replayFold) close() error { return os.RemoveAll(w.dir) }

func (w *replayFold) run(i int, rec *recorder) opSample {
	var (
		evs      []obs.Event
		err      error
		out      = sha256.New()
		drift    state.DriftReport
		makespan int64
		// violations is the auditor's count over the whole journal.
		violations int
	)
	write := func(v any, enc func(any) ([]byte, error)) {
		if err != nil {
			return
		}
		var b []byte
		if b, err = enc(v); err == nil {
			out.Write(b)
		}
	}

	rec.begin(i)
	rec.layer("journal.read", func() { evs, _, err = journal.ReadAll(w.dir, 0) })
	rec.layer("audit.fold", func() {
		a := audit.New()
		a.Feed(evs...)
		report := a.Report()
		violations = report.Violations()
		write(report, json.Marshal)
	})
	rec.layer("state.fold", func() {
		s := state.New(state.Options{})
		s.Prefeed(evs)
		drift = s.DriftBody()
		write(s.StateBody(-1), state.Encode)
		write(drift, state.Encode)
	})
	rec.layer("obs.spanforest", func() { write(obs.BuildSpanForest(evs), json.Marshal) })
	rec.layer("clock.fold", func() {
		c := clock.New(nil)
		c.Observe(evs)
		write(c.Estimates(), json.Marshal)
	})
	s := rec.end()

	got := hex.EncodeToString(out.Sum(nil))
	if w.want == "" {
		w.want = got
	}
	for _, u := range drift.Updates {
		var last int64
		for _, sw := range u.Switches {
			if d := sw.AppliedAt - u.PlannedAt; d > last {
				last = d
			}
		}
		makespan += last
	}
	switch {
	case err != nil:
		s.Failed = err.Error()
	case got != w.want:
		s.Failed = "replay output differs from the first op's"
	case violations > 0:
		s.Failed = fmt.Sprintf("audit: %d violations in a journal of clean updates", violations)
	case drift.Counts["converged"] != replayUpdates:
		s.Failed = fmt.Sprintf("drift: %d of %d journaled updates converged", drift.Counts["converged"], replayUpdates)
	}
	s.Makespan = makespan / replayUpdates
	s.Counts["audit_violations"] = int64(violations)
	s.Counts["journal_events_read"] = int64(len(evs))
	s.Counts["events"] = int64(len(evs))
	s.Digest = got
	if w.evs == nil {
		w.evs = evs
	}
	return s
}
