// Package audit is the runtime consistency auditor: it ingests the
// structured event stream an obs.Tracer records while a schedule
// executes on the emulated data plane — live, or offline from the JSONL
// files `mutp -trace` writes — and independently re-verifies the two
// invariants the paper's Theorem 3 promises at every moment of a Chronus
// update: loop freedom (Definition 2) and congestion freedom
// (Definition 3).
//
// The auditor deliberately re-derives everything from the trace alone —
// it never touches the live network, the instance, or the schedule — so
// it cross-checks the emulator rather than repeating it:
//
//   - Per-switch forwarding state is reconstructed from sw.flowmod
//     (immediate) and sw.apply (timed activation) events, whose key/cmd/
//     next attributes carry the rule content. At every state-change
//     instant an Algorithm-4-style check walks forward from each flipped
//     switch's new next hop; reaching the flipped switch again is a
//     configuration cycle.
//   - Because a simultaneous ("one-shot") update never exhibits an
//     instantaneous cycle, the auditor additionally replays emissions
//     through the reconstructed time-varying tables at the actually
//     observed activation ticks — the dynamic-flow semantics of
//     dynflow.TraceEmission — catching the in-flight loops and
//     blackholes of Definition 2 that only exist for traffic already in
//     the network when rules flip.
//   - Per-link utilization (old + in-flight + new traffic) is
//     reconstructed from emu.rate events and compared against capacity;
//     the resulting overload intervals are then cross-checked against
//     the emulator's own emu.overload spans, so the two congestion
//     detectors police each other.
//
// On the same stream the auditor computes a schedule critical path: per
// switch, the planned tick, FlowMod send/receive, barrier and activation
// instants, the activation skew, the sched→recv lead, and which switch
// gated the makespan.
//
// The event families and attributes consumed are the rows of the
// contract table in internal/obs (contract.go) that name audit; unknown
// event names are ignored.
//
// # Determinism
//
// Report construction is a pure function of the fed events: every map
// whose iteration order could reach a report is iterated through sorted
// key lists, ties are broken by sequence number,
// and rendering prints virtual ticks only. Feeding the byte-identical
// trace a fixed-seed execution produces therefore yields byte-identical
// reports — enforced by the mutp golden test. Reporting in between feeds
// changes nothing: every Report equals a fresh auditor's over the same
// events.
package audit

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"github.com/chronus-sdn/chronus/internal/obs"
)

// Auditor accumulates trace events and derives a consistency Report.
// Feed order does not matter: a report describes the fed events sorted
// by virtual time (sequence number as tie-break).
//
// Reports fold forward: the reconstruction is kept between calls, so a
// Report ingests only the events fed since the previous one and replays
// only the flows they touched. A fed event that sorts before an already
// folded event it must follow makes that Report refold every event from
// scratch instead. An Auditor is not safe for concurrent use.
type Auditor struct {
	events []obs.Event

	// seqs holds the sequence numbers fed so far; unsequenced counts the
	// events that carry none (Seq 0).
	seqs        seqSet
	unsequenced int

	// st is the reconstruction over events[:folded].
	st     *state
	folded int
	// rebuilds counts the reports that refolded every event from scratch.
	rebuilds int
}

// New returns an empty auditor.
func New() *Auditor { return &Auditor{} }

// Feed adds events to the auditor.
func (a *Auditor) Feed(evs ...obs.Event) {
	a.events = append(a.events, evs...)
	for i := range evs {
		a.countSeq(evs[i].Seq)
	}
}

func (a *Auditor) countSeq(seq uint64) {
	if seq == 0 {
		a.unsequenced++
		return
	}
	a.seqs.add(seq)
}

// ReadJSONL feeds every event of a JSON-Lines stream (the format
// obs.Tracer.WriteJSONL and the chronusd /trace endpoint emit). Any
// malformed line — including a torn trailing one — is a line-numbered
// error; use ReadJSONLTolerant for captures that may have been cut off
// mid-write.
func (a *Auditor) ReadJSONL(r io.Reader) error {
	_, _, err := a.readJSONL(r, false)
	return err
}

// ReadJSONLTolerant is ReadJSONL for captures taken from a live writer:
// a final line missing its terminating newline that fails to parse is a
// torn mid-write tail, reported in warn and skipped rather than failing
// the whole read. Corruption anywhere else — a malformed line that IS
// newline-terminated, or a malformed line followed by more data — still
// fails with a line-numbered error, because nothing after a corrupt
// record can be trusted to be aligned. n is the number of events fed.
func (a *Auditor) ReadJSONLTolerant(r io.Reader) (n int, warn string, err error) {
	return a.readJSONL(r, true)
}

func (a *Auditor) readJSONL(r io.Reader, tolerant bool) (n int, warn string, err error) {
	warn, err = obs.ReadJSONL(r, tolerant, func(e obs.Event) error {
		a.events = append(a.events, e)
		a.countSeq(e.Seq)
		n++
		return nil
	})
	if err != nil {
		err = fmt.Errorf("audit: %w", err)
	}
	return n, warn, err
}

// splitLink splits a "u>v" link label into its endpoints.
func splitLink(label string) (string, string, bool) {
	from, to, ok := strings.Cut(label, ">")
	return from, to, ok
}

// Report reconstructs forwarding and utilization state from the fed
// events and returns the auditor's verdict. It folds the events fed since
// the previous Report into the kept reconstruction, or, if one of them
// sorts before what it must follow, rebuilds the reconstruction from
// every fed event; either way the report equals a fresh auditor's.
func (a *Auditor) Report() *Report {
	if a.st == nil || !a.st.fold(a.events[a.folded:]) {
		if a.st != nil {
			a.rebuilds++
		}
		// One time-ordered pass from an empty state; it cannot fail.
		a.st = newState()
		a.st.fold(a.events)
	}
	a.folded = len(a.events)

	notes := make(noteSet)
	if a.unsequenced > 0 {
		notes.add("%d event(s) carry no sequence number; gap detection is off for them", a.unsequenced)
	}
	return a.st.report(len(a.events), a.seqs.missing(), notes)
}

// seqSet is a set of sequence numbers kept as sorted, disjoint runs of
// consecutive values. A tracer numbers its events densely and its ring
// only cuts the stream where it evicted, so feeding a stream in order
// only ever extends the last run.
type seqSet struct {
	runs     []seqRun
	distinct uint64
}

type seqRun struct{ lo, hi uint64 }

func (s *seqSet) add(seq uint64) {
	n := len(s.runs)
	if n > 0 && seq == s.runs[n-1].hi+1 {
		s.runs[n-1].hi = seq
		s.distinct++
		return
	}
	// The first run that ends at or after seq.
	i := sort.Search(n, func(i int) bool { return s.runs[i].hi >= seq })
	if i < n && s.runs[i].lo <= seq {
		return // fed before
	}
	s.distinct++
	joinPrev := i > 0 && s.runs[i-1].hi+1 == seq
	joinNext := i < n && s.runs[i].lo == seq+1
	switch {
	case joinPrev && joinNext:
		s.runs[i-1].hi = s.runs[i].hi
		s.runs = slices.Delete(s.runs, i, i+1)
	case joinPrev:
		s.runs[i-1].hi = seq
	case joinNext:
		s.runs[i].lo = seq
	default:
		s.runs = slices.Insert(s.runs, i, seqRun{seq, seq})
	}
}

// missing infers how many events are absent from the stream: the tracer
// numbers events from 1 and keeps Seq monotonic across ring evictions,
// so every number below the highest one fed that was never fed is a
// lost event.
func (s *seqSet) missing() uint64 {
	if len(s.runs) == 0 {
		return 0
	}
	return s.runs[len(s.runs)-1].hi - s.distinct
}
