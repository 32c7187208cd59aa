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
// Report construction is a pure function of the fed events: all maps are
// iterated through sorted key lists, ties are broken by sequence number,
// and rendering prints virtual ticks only. Feeding the byte-identical
// trace a fixed-seed execution produces therefore yields byte-identical
// reports — enforced by the mutp golden test.
package audit

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/chronus-sdn/chronus/internal/obs"
)

// Auditor accumulates trace events and derives a consistency Report.
// Feed order does not matter: Report sorts by virtual time (sequence
// number as tie-break) before reconstructing.
type Auditor struct {
	events []obs.Event
}

// New returns an empty auditor.
func New() *Auditor { return &Auditor{} }

// Feed adds events to the auditor.
func (a *Auditor) Feed(evs ...obs.Event) {
	a.events = append(a.events, evs...)
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
// events and returns the auditor's verdict.
func (a *Auditor) Report() *Report {
	st := newState()
	evs := append([]obs.Event(nil), a.events...)
	// Virtual-time order with sequence tie-break: kernel-emitted events
	// keep their causal order, while plan markers (sched) land at their
	// planned instant.
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].VT != evs[j].VT {
			return evs[i].VT < evs[j].VT
		}
		return evs[i].Seq < evs[j].Seq
	})
	for _, e := range evs {
		st.ingest(e)
	}
	st.flushBatch()

	r := &Report{Events: len(a.events)}
	r.MissingEvents = missingEvents(a.events)
	st.finishCongestion(r)
	st.finishLoops(r)
	st.finishCritical(r)
	r.Notes = st.sortedNotes()
	return r
}

// missingEvents infers how many events are absent from the stream via
// sequence-number gaps (the tracer ring drops oldest-first but keeps Seq
// monotonic, so every eviction leaves a gap).
func missingEvents(evs []obs.Event) uint64 {
	if len(evs) == 0 {
		return 0
	}
	seqs := make([]uint64, 0, len(evs))
	for _, e := range evs {
		seqs = append(seqs, e.Seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	missing := seqs[0] - 1
	for i := 1; i < len(seqs); i++ {
		if seqs[i] > seqs[i-1] {
			missing += seqs[i] - seqs[i-1] - 1
		}
	}
	return missing
}
