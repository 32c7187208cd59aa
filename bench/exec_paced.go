package main

import (
	"fmt"
	"math/rand"
	"os"

	chronus "github.com/chronus-sdn/chronus"
)

const (
	// execPacedSwitches sizes each instance: 24 switches, so one op is
	// ~50 FlowMods and three barriers over as many TCP connections.
	execPacedSwitches = 24
	// execPacedPerPlant is how many back-to-back updates one booted data
	// plane takes before the next instance boots. Booting 24 sockets per
	// op would exhaust loopback ports; one plant for the whole round
	// would measure a single topology.
	execPacedPerPlant = 30
)

// execPaced is the two-phase ("tp") update over loopback TCP with a
// journal sink attached: no solve, no certification. Each instance's
// flow migrates init -> fin -> init -> ... under fresh version tags, the
// back-to-back reroute of one flow.
type execPaced struct {
	outDir string
	seed   int64
	corpus []*chronus.Instance
	hash   string
	evs    []chronus.TraceEvent

	dir       string
	plant     *plant
	plantIdx  int
	base      map[string]int64
	boots     int
	seenSeq   uint64
	seenViols int
	bootNs    int64
}

func (w *execPaced) setup(seed int64, n int, rec *recorder) error {
	w.seed = seed
	// Op n is the warm-up's; it may need a plant of its own.
	plants := n/execPacedPerPlant + 1
	rec.layer("topo.corpus_gen", func() {
		rng := rand.New(rand.NewSource(seed))
		p := chronus.DefaultRandomInstanceParams(execPacedSwitches)
		for len(w.corpus) < plants {
			w.corpus = append(w.corpus, chronus.RandomInstance(rng, p))
		}
	})
	h := newCorpusHash()
	for _, in := range w.corpus {
		h.add(in)
	}
	w.hash = h.sum()
	w.plantIdx = -1
	dir, err := os.MkdirTemp(w.outDir, "exec-paced-")
	w.dir = dir
	return err
}

func (w *execPaced) fingerprint() string { return w.hash }

func (w *execPaced) events() []chronus.TraceEvent { return w.evs }

func (w *execPaced) close() error {
	err := w.closePlant()
	if rerr := os.RemoveAll(w.dir); err == nil {
		err = rerr
	}
	return err
}

func (w *execPaced) closePlant() error {
	if w.plant == nil {
		return nil
	}
	err := w.plant.close()
	w.plant = nil
	return err
}

// plantFor boots instance k's data plane unless it is the current one.
// The warm-up op and op 0 share instance 0 but not its plant: every
// round starts op 0 on a fresh boot.
func (w *execPaced) plantFor(k int, fresh bool) error {
	if w.plant != nil && w.plantIdx == k && !fresh {
		return nil
	}
	if err := w.closePlant(); err != nil {
		return err
	}
	var err error
	w.bootNs = timeIt(func() {
		w.plant, err = bootPlant(w.corpus[k], w.seed+int64(k), plantOptions{
			TCP:        true,
			JournalDir: fmt.Sprintf("%s/plant-%d", w.dir, w.boots),
		})
	})
	if err != nil {
		return err
	}
	// Boot events still in the journal's buffer would count against the
	// first op.
	if err := w.plant.journal.Flush(); err != nil {
		return err
	}
	w.plantIdx = k
	w.boots++
	w.base = registryCounts(w.plant.reg)
	w.seenSeq = lastSeq(w.plant.tracer.Events(0), 0)
	w.seenViols = 0
	return nil
}

func (w *execPaced) run(i int, rec *recorder) opSample {
	k := i / execPacedPerPlant
	if err := w.plantFor(k, i%execPacedPerPlant == 0); err != nil {
		return opSample{Failed: "boot: " + err.Error(), Counts: map[string]int64{}}
	}
	p := w.plant
	id := uint64(i + 1)
	// Odd steps on a plant migrate back: the instance with its paths
	// swapped.
	if p.flow.Path.Equal(p.in.Fin) {
		p.in = &chronus.Instance{G: p.in.G, Demand: p.in.Demand, Init: p.in.Fin, Fin: p.in.Init, Obs: p.reg}
	}

	rec.begin(i)
	err := p.executeTwoPhase(id, rec)
	var flushErr error
	rec.layer("journal.flush", func() { flushErr = p.journal.Flush() })
	var f foldResult
	if err == nil {
		f = p.fold(id, rec)
	}
	s := rec.end()

	s.Makespan = f.makespan
	switch {
	case err != nil:
		s.Failed = err.Error()
	case flushErr != nil:
		s.Failed = "journal: " + flushErr.Error()
	case f.status != "converged":
		s.Failed = "drift: " + f.status
	}
	s.BootNs, w.bootNs = w.bootNs, 0
	next := registryCounts(p.reg)
	addDeltas(s.Counts, next, w.base)
	w.base = next
	evs := p.tracer.Events(w.seenSeq)
	w.seenSeq = lastSeq(evs, w.seenSeq)
	s.Counts["events"] = int64(len(evs))
	s.Counts["audit_violations"] = int64(f.violations - w.seenViols)
	w.seenViols = f.violations
	if len(w.evs) < probeEvents {
		w.evs = append(w.evs, evs...)
	}
	return s
}
