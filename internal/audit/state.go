package audit

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"github.com/chronus-sdn/chronus/internal/obs"
)

// ruleChange is one reconstructed forwarding-table change: from tick on
// (inclusive), the switch forwards key to next ("" = no rule, "host" =
// deliver locally).
type ruleChange struct {
	tick int64
	next string
}

// rateChange is one injection-rate change at the source.
type rateChange struct {
	tick int64
	rate int64
}

// flip is one pending state change of the current same-tick batch.
type flip struct {
	sw, key, next string
}

// linkState reconstructs one link's utilization from emu.rate events.
type linkState struct {
	cap    int64
	rates  map[string]int64 // key -> aggregate rate
	open   *CongestionViolation
	keys   map[string]bool // keys seen while the open interval ran
	closed []CongestionViolation
}

// foldPos is a folded event's place in the (VT, Seq) order.
type foldPos struct {
	vt  int64
	seq uint64
}

// admits reports whether e may be folded after the event at p: it sorts
// at or after it. An equal key sorts after, because the stable sort
// keeps a later-fed event behind an earlier-fed one.
func (p *foldPos) admits(e *obs.Event) bool {
	return e.VT > p.vt || e.VT == p.vt && e.Seq >= p.seq
}

// nothingFolded sorts before every event.
var nothingFolded = foldPos{vt: math.MinInt64}

// state is the reconstruction the auditor builds from the time-ordered
// events. It is kept between reports and extended by fold.
type state struct {
	// Fold frontiers: the last event folded of each class (see classOf).
	kernel    foldPos
	overloads foldPos
	planned   map[string]*foldPos // switch -> its last sched marker
	pending   []obs.Event         // fold's sort scratch

	// Forwarding reconstruction.
	tables   map[string]map[string]string       // switch -> key -> next
	ruleHist map[string]map[string][]ruleChange // switch -> key -> changes, tick-ascending
	batchVT  int64
	batch    []flip
	cycles   []LoopViolation

	// Utilization reconstruction.
	links  map[string]*linkState
	delays map[[2]string]int64

	// Injection replay inputs.
	inject map[string][]rateChange // key -> changes, tick-ascending
	source map[string]string       // key -> source switch

	// Emulator ground truth, for cross-checks.
	emuOverloads []CongestionViolation
	dropNoRule   map[[2]string]int64 // (switch, key) -> first drop tick
	ttlByKey     map[string]int64    // key -> first ttl-expiry tick
	ttlDrops     int

	// Control-plane timeline.
	lanes map[string]*SwitchLane

	// notes are the ones written while ingesting; each report writes its
	// own on top (see report).
	notes noteSet

	// The replay cache (see replayed): each injected key's last replay,
	// and the counters its inputs are checked against — per key, its rule
	// and inject changes so far, and delayEpoch, bumped whenever a
	// learned link delay changes.
	replays    map[string]*keyReplay
	changes    map[string]int
	delayEpoch int

	// The emission replay's tables and scratch, reused from key to key.
	rp replayer
}

func newState() *state {
	return &state{
		kernel:     nothingFolded,
		overloads:  nothingFolded,
		planned:    make(map[string]*foldPos),
		tables:     make(map[string]map[string]string),
		ruleHist:   make(map[string]map[string][]ruleChange),
		batchVT:    -1 << 62,
		links:      make(map[string]*linkState),
		delays:     make(map[[2]string]int64),
		inject:     make(map[string][]rateChange),
		source:     make(map[string]string),
		dropNoRule: make(map[[2]string]int64),
		ttlByKey:   make(map[string]int64),
		lanes:      make(map[string]*SwitchLane),
		notes:      make(noteSet),
		replays:    make(map[string]*keyReplay),
		changes:    make(map[string]int),
		rp:         replayer{ids: make(map[string]int32), loopAt: make(map[string]int)},
	}
}

// noteSet is a set of report notes.
type noteSet map[string]bool

func (n noteSet) add(format string, args ...any) {
	n[fmt.Sprintf(format, args...)] = true
}

func (n noteSet) sorted() []string {
	out := make([]string, 0, len(n))
	for s := range n {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

func (st *state) lane(sw string) *SwitchLane {
	l, ok := st.lanes[sw]
	if !ok {
		l = &SwitchLane{Switch: sw, Planned: -1, Sent: -1, Sched: -1, Recv: -1, Barrier: -1, Apply: -1, Lead: -1}
		st.lanes[sw] = l
	}
	return l
}

// foldClass partitions the events the auditor reads by the state they
// touch. Classes touch disjoint state, so only the order of events
// within one class matters.
type foldClass uint8

const (
	classIgnored  foldClass = iota // not read by the auditor
	classKernel                    // rules, rates, injections, drops and lanes all interact
	classOverload                  // emu.overload: only fills the cross-check list
	classPlanned                   // sched: only sets its switch's planned tick
)

func classOf(name string) foldClass {
	switch name {
	case obs.EvSwFlowMod, obs.EvSwApply, obs.EvSwBarrier, obs.EvCtlFlowMod,
		obs.EvEmuInject, obs.EvEmuRate, obs.EvEmuDrop:
		return classKernel
	case obs.EvEmuOverload:
		return classOverload
	case obs.EvSched:
		return classPlanned
	}
	return classIgnored
}

// frontier returns where e's class was last folded, nil if the auditor
// does not read e. Each switch's sched markers are a class of their own.
func (st *state) frontier(e *obs.Event) *foldPos {
	switch classOf(e.Name) {
	case classKernel:
		return &st.kernel
	case classOverload:
		return &st.overloads
	case classPlanned:
		sw := e.Attr(obs.KeySwitch)
		at := st.planned[sw]
		if at == nil {
			at = &foldPos{vt: nothingFolded.vt}
			st.planned[sw] = at
		}
		return at
	}
	return nil
}

// byTime is the order a report reads events in: virtual time, sequence
// number as tie-break. Kernel-emitted events keep their causal order,
// while plan markers (sched) land at their planned instant.
func byTime(a, b obs.Event) int {
	if c := cmp.Compare(a.VT, b.VT); c != 0 {
		return c
	}
	return cmp.Compare(a.Seq, b.Seq)
}

// timeOrdered reports whether the events of evs the auditor reads
// already appear in byTime order.
func timeOrdered(evs []obs.Event) bool {
	last := -1
	for i := range evs {
		if classOf(evs[i].Name) == classIgnored {
			continue
		}
		if last >= 0 && byTime(evs[last], evs[i]) > 0 {
			return false
		}
		last = i
	}
	return true
}

// fold ingests evs, the events fed since the previous fold, in byTime
// order. That is the order a from-scratch pass over every fed event
// visits them in as long as each sorts at or after the last event folded
// of its class. fold returns false, leaving the state unusable, at the
// first event that does not.
func (st *state) fold(evs []obs.Event) bool {
	if !timeOrdered(evs) {
		pend := st.pending[:0]
		for i := range evs {
			if classOf(evs[i].Name) != classIgnored {
				pend = append(pend, evs[i])
			}
		}
		slices.SortStableFunc(pend, byTime)
		st.pending, evs = pend, pend
	}
	for i := range evs {
		e := &evs[i]
		at := st.frontier(e)
		if at == nil {
			continue
		}
		if !at.admits(e) {
			return false
		}
		*at = foldPos{vt: e.VT, seq: e.Seq}
		st.ingest(e)
	}
	return true
}

// ingest dispatches one time-ordered event into the reconstruction.
func (st *state) ingest(e *obs.Event) {
	switch e.Name {
	case obs.EvSwFlowMod:
		sw := e.Attr(obs.KeySwitch)
		if e.Attr(obs.KeyKind) == "timed" {
			l := st.lane(sw)
			l.Recv = e.VT
			if at, ok := e.LookupInt(obs.KeyAt); ok && l.Sched < 0 {
				l.Sched = at
			}
			return // receipt only; the table changes at sw.apply
		}
		st.applyRule(e.VT, sw, e.Attr(obs.KeyKey), e.Attr(obs.KeyCmd), e.Attr(obs.KeyNext))
	case obs.EvSwApply:
		sw := e.Attr(obs.KeySwitch)
		l := st.lane(sw)
		l.Apply = e.VT
		if skew, ok := e.LookupInt(obs.KeySkew); ok {
			l.Skew = skew
		}
		if at, ok := e.LookupInt(obs.KeyAt); ok && l.Sched < 0 {
			l.Sched = at
		}
		st.applyRule(e.VT, sw, e.Attr(obs.KeyKey), e.Attr(obs.KeyCmd), e.Attr(obs.KeyNext))
	case obs.EvSwBarrier:
		if l := st.lane(e.Attr(obs.KeySwitch)); l.Apply < 0 {
			l.Barrier = e.VT
		}
	case obs.EvCtlFlowMod:
		if at, ok := e.LookupInt(obs.KeyAt); ok && at > 0 {
			l := st.lane(e.Attr(obs.KeySwitch))
			l.Sent = e.VT
			l.Sched = at
		}
	case obs.EvSched:
		st.lane(e.Attr(obs.KeySwitch)).Planned = e.VT
	case obs.EvEmuInject:
		key := e.Attr(obs.KeyKey)
		rate := e.AttrInt(obs.KeyRate)
		st.inject[key] = append(st.inject[key], rateChange{tick: e.VT, rate: rate})
		st.changes[key]++
		if rate > 0 {
			st.source[key] = e.Attr(obs.KeySwitch)
		}
	case obs.EvEmuRate:
		st.linkRate(e)
	case obs.EvEmuOverload:
		st.emuOverloads = append(st.emuOverloads, CongestionViolation{
			Link:  e.Attr(obs.KeyLink),
			Start: e.VT,
			End:   e.VT + e.Dur,
			Peak:  e.AttrInt(obs.KeyPeak),
			Cap:   e.AttrInt(obs.KeyCap),
		})
	case obs.EvEmuDrop:
		sw, key := e.Attr(obs.KeySwitch), e.Attr(obs.KeyKey)
		if e.Attr(obs.KeyReason) == "ttl_expired" {
			st.ttlDrops++
			if _, seen := st.ttlByKey[key]; !seen {
				st.ttlByKey[key] = e.VT
			}
			return
		}
		if _, seen := st.dropNoRule[[2]string{sw, key}]; !seen {
			st.dropNoRule[[2]string{sw, key}] = e.VT
		}
	}
}

// applyRule records a forwarding-table change and queues it for the
// same-tick configuration-cycle check.
func (st *state) applyRule(vt int64, sw, key, cmd, next string) {
	if sw == "" || key == "" {
		return
	}
	if vt != st.batchVT {
		st.flushBatch()
		st.batchVT = vt
	}
	if cmd == "del" {
		next = ""
	}
	tbl, ok := st.tables[sw]
	if !ok {
		tbl = make(map[string]string)
		st.tables[sw] = tbl
	}
	if next == "" {
		delete(tbl, key)
	} else {
		tbl[key] = next
	}
	hist, ok := st.ruleHist[sw]
	if !ok {
		hist = make(map[string][]ruleChange)
		st.ruleHist[sw] = hist
	}
	hist[key] = append(hist[key], ruleChange{tick: vt, next: next})
	st.changes[key]++
	st.batch = append(st.batch, flip{sw: sw, key: key, next: next})
}

// flushBatch closes the current same-tick batch: every flip of its tick
// has been applied, so its configuration cycles are final.
func (st *state) flushBatch() {
	st.cycles = st.checkBatch(st.cycles)
	st.batch = st.batch[:0]
}

// checkBatch runs the Algorithm-4-style instantaneous loop check over the
// batch of rule changes that took effect at the same tick, appending the
// cycles it finds to dst: for each flipped switch v, walk forward from
// its new next hop through the current tables; reaching v again means the
// configuration itself has a cycle. (Chronus's scheduler runs the same
// check backward over the active path before accepting a candidate; here
// it audits what the switches actually installed.)
func (st *state) checkBatch(dst []LoopViolation) []LoopViolation {
	if len(st.batch) == 0 {
		return dst
	}
	seen := make(map[string]bool)
	for _, f := range st.batch {
		if f.next == "" || f.next == "host" {
			continue
		}
		path := []string{f.sw}
		visited := map[string]bool{f.sw: true}
		cur := f.next
		for step := 0; step <= len(st.tables)+1; step++ {
			if cur == "" || cur == "host" {
				break
			}
			if cur == f.sw {
				cyc := canonicalCycle(path)
				if !seen[cyc] {
					seen[cyc] = true
					dst = append(dst, LoopViolation{
						Kind:  "config-cycle",
						Key:   f.key,
						At:    f.sw,
						Tick:  st.batchVT,
						Cycle: cyc,
					})
				}
				break
			}
			if visited[cur] {
				break // a cycle not through f.sw; its own flip flags it
			}
			visited[cur] = true
			path = append(path, cur)
			cur = st.tables[cur][f.key]
		}
	}
	return dst
}

// canonicalCycle renders a cycle rotated to start at its smallest
// member, so the same cycle detected from different switches dedupes.
func canonicalCycle(path []string) string {
	min := 0
	for i := range path {
		if path[i] < path[min] {
			min = i
		}
	}
	rot := append(append([]string(nil), path[min:]...), path[:min]...)
	rot = append(rot, rot[0])
	return joinCycle(rot)
}

func joinCycle(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += ">"
		}
		out += p
	}
	return out
}

// linkRate processes one emu.rate event: update the per-key rate table,
// independently recompute the link total, and track overload intervals
// with the same open/close/blip semantics the emulator uses.
func (st *state) linkRate(e *obs.Event) {
	label := e.Attr(obs.KeyLink)
	ls, ok := st.links[label]
	if !ok {
		ls = &linkState{cap: e.AttrInt(obs.KeyCap), rates: make(map[string]int64)}
		st.links[label] = ls
	}
	if from, to, ok := splitLink(label); ok {
		if d, ok := e.LookupInt(obs.KeyDelay); ok && d > 0 && st.delays[[2]string{from, to}] != d {
			st.delays[[2]string{from, to}] = d
			st.delayEpoch++
		}
	}
	key := e.Attr(obs.KeyKey)
	rate := e.AttrInt(obs.KeyRate)
	if rate == 0 {
		delete(ls.rates, key)
	} else {
		ls.rates[key] = rate
	}
	var total int64
	for _, r := range ls.rates {
		total += r
	}
	if reported, ok := e.LookupInt(obs.KeyTotal); ok && reported != total {
		st.notes.add("link %s: reconstructed total %d disagrees with emulator total %d at tick %d", label, total, reported, e.VT)
	}

	over := total > ls.cap
	switch {
	case over && ls.open == nil:
		ls.open = &CongestionViolation{Link: label, Start: e.VT, End: -1, Peak: total, Cap: ls.cap}
		ls.keys = make(map[string]bool)
		for k := range ls.rates {
			ls.keys[k] = true
		}
	case over:
		if total > ls.open.Peak {
			ls.open.Peak = total
		}
		for k := range ls.rates {
			ls.keys[k] = true
		}
	case ls.open != nil:
		if ls.open.Start != e.VT {
			// A zero-length blip (two changes at the same instant) is
			// discarded, mirroring the emulator's interval recorder.
			ls.open.End = e.VT
			ls.open.Keys = sortedKeys(ls.keys)
			ls.closed = append(ls.closed, *ls.open)
		}
		ls.open, ls.keys = nil, nil
	}
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// report assembles the verdict over everything folded so far. notes is
// the report's own: what the finishers write about the trace as a whole
// (an overload still open, a detector disagreement, a drop nothing
// explains) holds only for these events, so it is never kept. The report
// shares no slice or map with the state, which later folds mutate.
func (st *state) report(events int, missing uint64, notes noteSet) *Report {
	r := &Report{Events: events, MissingEvents: missing}
	st.finishCongestion(r, notes)
	st.finishLoops(r, notes)
	st.finishCritical(r)
	for n := range st.notes {
		notes[n] = true
	}
	r.Notes = notes.sorted()
	return r
}

// finishCongestion collects the reconstructed overload intervals into
// the report and cross-checks them against the emulator's own spans.
func (st *state) finishCongestion(r *Report, notes noteSet) {
	labels := make([]string, 0, len(st.links))
	for l := range st.links {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	var reconstructed []CongestionViolation
	for _, label := range labels {
		ls := st.links[label]
		for _, c := range ls.closed {
			c.Keys = slices.Clone(c.Keys)
			reconstructed = append(reconstructed, c)
		}
		if ls.open != nil {
			still := *ls.open
			still.Keys = sortedKeys(ls.keys)
			reconstructed = append(reconstructed, still)
			notes.add("link %s: overload still open when the trace ended", label)
		}
	}
	sortCongestion(reconstructed)
	r.Congestion = reconstructed

	// The two congestion detectors police each other: every closed
	// reconstructed interval must match an emulator overload span and
	// vice versa. Open intervals are excluded — the emulator, too, only
	// reports an interval once it closes.
	var closed []CongestionViolation
	for _, c := range reconstructed {
		if c.End >= 0 {
			closed = append(closed, c)
		}
	}
	emu := append([]CongestionViolation(nil), st.emuOverloads...)
	sortCongestion(emu)
	r.EmuOverloads = len(emu)
	r.DetectorsAgree = len(closed) == len(emu)
	if r.DetectorsAgree {
		for i := range closed {
			a, b := closed[i], emu[i]
			if a.Link != b.Link || a.Start != b.Start || a.End != b.End || a.Peak != b.Peak || a.Cap != b.Cap {
				r.DetectorsAgree = false
				break
			}
		}
	}
	if !r.DetectorsAgree {
		notes.add("congestion detectors disagree: %d reconstructed closed intervals vs %d emulator spans", len(closed), len(emu))
	}
}

func sortCongestion(cs []CongestionViolation) {
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].Link != cs[j].Link {
			return cs[i].Link < cs[j].Link
		}
		if cs[i].Start != cs[j].Start {
			return cs[i].Start < cs[j].Start
		}
		return cs[i].End < cs[j].End
	})
}

// finishCritical assembles the per-switch control timeline and the
// critical-path summary.
func (st *state) finishCritical(r *Report) {
	names := make([]string, 0, len(st.lanes))
	for n := range st.lanes {
		names = append(names, n)
	}
	sort.Strings(names)
	cp := CriticalPath{Makespan: -1}
	minSched, maxApply := int64(-1), int64(-1)
	for _, n := range names {
		l := *st.lanes[n]
		if l.Sched < 0 && l.Recv < 0 && l.Apply < 0 {
			continue // no timed-update activity; not part of the critical path
		}
		if l.Sched >= 0 && l.Recv >= 0 {
			l.Lead = l.Sched - l.Recv
		}
		cp.Switches = append(cp.Switches, l)
		if l.Sched >= 0 && (minSched < 0 || l.Sched < minSched) {
			minSched = l.Sched
		}
		if l.Apply > maxApply {
			maxApply = l.Apply
			cp.Gating = l.Switch
		}
	}
	if minSched >= 0 && maxApply >= 0 {
		cp.Makespan = maxApply - minSched
	}
	r.Critical = cp
}
