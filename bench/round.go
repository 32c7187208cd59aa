package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	chronus "github.com/chronus-sdn/chronus"
	"github.com/chronus-sdn/chronus/internal/journal"
)

// probeEvents bounds how many recorded trace events a round keeps for
// the tracer emit probes (below the journal's default buffer, so the
// non-blocking sink drops none of them).
const probeEvents = 4096

// roundResult is what one round — one fresh process running a
// workload's whole op list once — hands back to the driver process.
type roundResult struct {
	Workload    string     `json:"workload"`
	Seed        int64      `json:"seed"`
	Traced      bool       `json:"traced"`
	Fingerprint string     `json:"fingerprint"`
	SetupNs     int64      `json:"setup_ns"`
	CorpusGenNs int64      `json:"corpus_gen_ns"`
	Ops         []opSample `json:"ops"`
	// EmitNs and JournalEmitNs are the tracer emit probes, per event.
	EmitNs        float64 `json:"emit_ns"`
	JournalEmitNs float64 `json:"journal_emit_ns"`
	// RetainedB is the live heap after a forced GC at the end of the
	// round, the workload still referenced.
	RetainedB uint64 `json:"retained_b"`
}

func timeIt(f func()) int64 {
	t := time.Now()
	f()
	return time.Since(t).Nanoseconds()
}

// runRound runs spec's op list once in this process and writes the
// roundResult to out. Set-up is the corpus plus one warm-up op, so that
// lazy initialisation (scheme registry, pools, first-use allocations)
// is paid before the first timed op.
func runRound(spec workloadSpec, seed int64, ops int, traced bool, outDir string, out io.Writer) error {
	// One P: on the shared two-core boxes this runs on, a co-tenant busy
	// on one core slows a two-P round by 7 % (exec-timed) to 113 %
	// (admit-churn, whose 235 MB per op keep the concurrent collector on
	// the second core), and a one-P round by at most 7 %. The second
	// core is left to the neighbours, the kernel and the driver process.
	runtime.GOMAXPROCS(1)

	rec := newRecorder(traced)
	rec.op = -1
	w := spec.new(outDir)
	res := roundResult{Workload: spec.name, Seed: seed, Traced: traced}
	var err error
	res.SetupNs = timeIt(func() {
		rec.layer("bench.setup", func() {
			if err = w.setup(seed, ops, rec); err != nil {
				return
			}
			warm := newRecorder(false)
			if s := w.run(ops, warm); s.Failed != "" {
				err = fmt.Errorf("warm-up op: %s", s.Failed)
			}
		})
	})
	if err != nil {
		return fmt.Errorf("%s: set-up: %w", spec.name, err)
	}
	if traced {
		for _, s := range rec.spans {
			if s.Name == "topo.corpus_gen" {
				res.CorpusGenNs += s.End - s.Start
			}
		}
	}
	res.Fingerprint = w.fingerprint()
	res.Ops = make([]opSample, ops)
	for i := range res.Ops {
		res.Ops[i] = w.run(i, rec)
	}
	if traced {
		res.EmitNs, res.JournalEmitNs, err = emitProbes(w.events(), outDir)
		if err != nil {
			return err
		}
		if err := rec.writeSpans(filepath.Join(outDir, "trace-"+spec.name+".jsonl")); err != nil {
			return err
		}
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.RetainedB = ms.HeapAlloc
	if err := w.close(); err != nil {
		return fmt.Errorf("%s: close: %w", spec.name, err)
	}
	return json.NewEncoder(out).Encode(res)
}

// emitProbes re-emits recorded events through Tracer.Point into a fresh
// sink-less tracer and into one with a journal sink, and returns the
// cost per event of each: what one trace event costs the update path,
// without and with durability.
func emitProbes(evs []chronus.TraceEvent, outDir string) (plain, journaled float64, err error) {
	if len(evs) == 0 {
		return 0, 0, nil
	}
	if len(evs) > probeEvents {
		evs = evs[:probeEvents]
	}
	emit := func(t *chronus.Tracer) float64 {
		ns := timeIt(func() {
			for _, e := range evs {
				t.Point(e.VT, e.Name, e.Attrs...)
			}
		})
		return float64(ns) / float64(len(evs))
	}
	plain = emit(chronus.NewTracer(chronus.TracerOptions{}))
	dir, err := os.MkdirTemp(outDir, "probe-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	jw, err := journal.Open(journal.Options{Dir: dir})
	if err != nil {
		return 0, 0, err
	}
	journaled = emit(chronus.NewTracer(chronus.TracerOptions{Sink: jw}))
	return plain, journaled, jw.Close()
}
