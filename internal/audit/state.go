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

// ruleRec is one switch's record of one key: every change of its rule,
// tick-ascending. The last is what the table holds now.
type ruleRec struct {
	key  string
	hist []ruleChange
}

// switchRec is everything the auditor reconstructs of one switch: its
// forwarding table, one record per key it ever changed a rule of,
// ascending by key, the learned delays of its out-links, its
// control-plane lane, and the last of its sched markers folded.
type switchRec struct {
	name    string
	rules   []ruleRec
	out     []outLink
	lane    SwitchLane
	laned   bool // an event of the lane was folded
	planned foldPos
}

// outLink is the learned delay of the link from a switch to the one named
// to.
type outLink struct {
	to    string
	delay int64
}

// find returns where the switch's record of key is, or would go, in
// sr.rules, and whether it is there.
func (sr *switchRec) find(key string) (int, bool) {
	i := sort.Search(len(sr.rules), func(i int) bool { return sr.rules[i].key >= key })
	return i, i < len(sr.rules) && sr.rules[i].key == key
}

// rule returns the switch's record of key, nil if it never changed a
// rule of key.
func (sr *switchRec) rule(key string) *ruleRec {
	if i, ok := sr.find(key); ok {
		return &sr.rules[i]
	}
	return nil
}

// timed reports whether the switch's lane saw timed-update activity: a
// scheduled, received or applied FlowMod.
func (sr *switchRec) timed() bool {
	l := &sr.lane
	return sr.laned && (l.Sched >= 0 || l.Recv >= 0 || l.Apply >= 0)
}

// delay returns the learned delay of the switch's link to the one named
// to, 0 if none was learned.
func (sr *switchRec) delay(to string) int64 {
	for _, o := range sr.out {
		if o.to == to {
			return o.delay
		}
	}
	return 0
}

// flowRec is everything the auditor reconstructs of one flow key.
type flowRec struct {
	key    string
	inject []rateChange // tick-ascending
	source string       // the switch that last injected it at a positive rate
	// changes counts the key's rule and inject changes; replay is its last
	// emission replay (see replayed), nil before the first.
	changes int
	replay  *keyReplay
}

// band is one key's aggregate rate on a link.
type band struct {
	key  string
	rate int64
}

// linkState reconstructs one link's utilization from emu.rate events.
type linkState struct {
	label  string
	cap    int64
	delay  int64  // the last learned delay, 0 before one is
	rates  []band // one per key with a nonzero rate
	open   *CongestionViolation
	keys   []string // keys seen while the open interval ran
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
	// The frontier of a switch's sched markers is in its record.
	kernel    foldPos
	overloads foldPos
	pending   []obs.Event // fold's sort scratch

	// switches holds one record per switch, ascending by name; byName
	// indexes it. ruleSwitches counts those that changed a rule: the
	// bound of the cycle walk and the replay window's span.
	switches     []*switchRec
	byName       map[string]*switchRec
	ruleSwitches int

	// Forwarding reconstruction: the flips of the open same-tick batch and
	// the configuration cycles of the closed ones. walk is the cycle
	// walk's path, which is also its visited set.
	batchVT int64
	batch   []flip
	cycles  []LoopViolation
	walk    []string

	// Utilization reconstruction, links ascending by label; byLabel
	// indexes them.
	links   []*linkState
	byLabel map[string]*linkState

	// flows holds one record per flow key, in the order first seen.
	flows  []*flowRec
	byFlow map[string]*flowRec

	// Emulator ground truth, for cross-checks.
	emuOverloads []CongestionViolation
	dropNoRule   map[[2]string]int64 // (switch, key) -> first drop tick
	ttlByKey     map[string]int64    // key -> first ttl-expiry tick
	ttlDrops     int

	// notes are the ones written while ingesting; each report writes its
	// own on top (see report).
	notes noteSet

	// delayEpoch is bumped whenever a learned link delay changes: every
	// replay reads the delays (see replayInputs).
	delayEpoch int

	// The emission replay's tables and scratch, reused from key to key.
	rp replayer
}

func newState() *state {
	return &state{
		kernel:     nothingFolded,
		overloads:  nothingFolded,
		byName:     make(map[string]*switchRec),
		byLabel:    make(map[string]*linkState),
		batchVT:    -1 << 62,
		byFlow:     make(map[string]*flowRec),
		dropNoRule: make(map[[2]string]int64),
		ttlByKey:   make(map[string]int64),
		notes:      make(noteSet),
	}
}

// sw returns the record of the switch named name, adding an empty one if
// it has none.
func (st *state) sw(name string) *switchRec {
	if sr := st.byName[name]; sr != nil {
		return sr
	}
	sr := &switchRec{name: name, planned: nothingFolded}
	st.byName[name] = sr
	i, _ := slices.BinarySearchFunc(st.switches, name, func(sr *switchRec, name string) int { return cmp.Compare(sr.name, name) })
	st.switches = slices.Insert(st.switches, i, sr)
	return sr
}

// flow returns key's record, adding an empty one if it has none.
func (st *state) flow(key string) *flowRec {
	if fr := st.byFlow[key]; fr != nil {
		return fr
	}
	fr := &flowRec{key: key}
	st.byFlow[key] = fr
	st.flows = append(st.flows, fr)
	return fr
}

// hist returns the rule changes sw made for key, tick-ascending.
func (st *state) hist(sw, key string) []ruleChange {
	if sr := st.byName[sw]; sr != nil {
		if r := sr.rule(key); r != nil {
			return r.hist
		}
	}
	return nil
}

// injects returns key's injection-rate changes, tick-ascending.
func (st *state) injects(key string) []rateChange {
	if fr := st.byFlow[key]; fr != nil {
		return fr.inject
	}
	return nil
}

// delay returns the learned delay of the link from sw to to, 0 if none was
// learned.
func (st *state) delay(sw, to string) int64 {
	if sr := st.byName[sw]; sr != nil {
		return sr.delay(to)
	}
	return 0
}

// next returns the next hop sw's table holds for key now, "" if none.
func (st *state) next(sw, key string) string {
	if h := st.hist(sw, key); len(h) > 0 {
		return h[len(h)-1].next
	}
	return ""
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

// lane returns the control-plane lane of the switch named sw.
func (st *state) lane(sw string) *SwitchLane {
	sr := st.sw(sw)
	if !sr.laned {
		sr.lane = SwitchLane{Switch: sw, Planned: -1, Sent: -1, Sched: -1, Recv: -1, Barrier: -1, Apply: -1, Lead: -1}
		sr.laned = true
	}
	return &sr.lane
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
		return &st.sw(e.Attr(obs.KeySwitch)).planned
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

// timeOrdered reports whether the events of batches the auditor reads,
// taken in feed order, already appear in byTime order.
func timeOrdered(batches [][]obs.Event) bool {
	var last *obs.Event
	for _, evs := range batches {
		for i := range evs {
			if classOf(evs[i].Name) == classIgnored {
				continue
			}
			if last != nil && byTime(*last, evs[i]) > 0 {
				return false
			}
			last = &evs[i]
		}
	}
	return true
}

// fold ingests batches, the events fed since the previous fold in feed
// order, in byTime order. That is the order a from-scratch pass over
// every fed event visits them in as long as each sorts at or after the
// last event folded of its class. fold returns false, leaving the state
// unusable, at the first event that does not. It never writes to the
// batches: when their events are out of order, it sorts one
// concatenation of the ones it reads.
func (st *state) fold(batches [][]obs.Event) bool {
	if !timeOrdered(batches) {
		pend := st.pending[:0]
		for _, evs := range batches {
			for i := range evs {
				if classOf(evs[i].Name) != classIgnored {
					pend = append(pend, evs[i])
				}
			}
		}
		slices.SortStableFunc(pend, byTime)
		st.pending = pend
		return st.foldOrdered(pend)
	}
	for _, evs := range batches {
		if !st.foldOrdered(evs) {
			return false
		}
	}
	return true
}

// foldOrdered is fold over time-ordered events.
func (st *state) foldOrdered(evs []obs.Event) bool {
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
		fr := st.flow(e.Attr(obs.KeyKey))
		rate := e.AttrInt(obs.KeyRate)
		fr.inject = append(fr.inject, rateChange{tick: e.VT, rate: rate})
		fr.changes++
		if rate > 0 {
			fr.source = e.Attr(obs.KeySwitch)
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
	sr := st.sw(sw)
	i, ok := sr.find(key)
	if !ok {
		if len(sr.rules) == 0 {
			st.ruleSwitches++
		}
		sr.rules = slices.Insert(sr.rules, i, ruleRec{key: key})
	}
	r := &sr.rules[i]
	r.hist = append(r.hist, ruleChange{tick: vt, next: next})
	st.flow(key).changes++
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
	batch := len(dst) // the batch's cycles are dst[batch:]
	for _, f := range st.batch {
		if f.next == "" || f.next == "host" {
			continue
		}
		path := append(st.walk[:0], f.sw)
		cur := f.next
		for step := 0; step <= st.ruleSwitches+1; step++ {
			if cur == "" || cur == "host" {
				break
			}
			if cur == f.sw {
				cyc := canonicalCycle(path)
				if !slices.ContainsFunc(dst[batch:], func(l LoopViolation) bool { return l.Cycle == cyc }) {
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
			if slices.Contains(path, cur) {
				break // a cycle not through f.sw; its own flip flags it
			}
			path = append(path, cur)
			cur = st.next(cur, f.key)
		}
		st.walk = path
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

// linkRate processes one emu.rate event: update the per-key rate bands,
// independently recompute the link total, and track overload intervals
// with the same open/close/blip semantics the emulator uses.
func (st *state) linkRate(e *obs.Event) {
	label := e.Attr(obs.KeyLink)
	ls := st.link(label, e.AttrInt(obs.KeyCap))
	if d, ok := e.LookupInt(obs.KeyDelay); ok && d > 0 && ls.delay != d {
		if from, to, ok := splitLink(label); ok {
			ls.delay = d
			st.sw(from).learn(to, d)
			st.delayEpoch++
		}
	}
	key := e.Attr(obs.KeyKey)
	rate := e.AttrInt(obs.KeyRate)
	i := slices.IndexFunc(ls.rates, func(b band) bool { return b.key == key })
	switch {
	case i < 0:
		if rate != 0 {
			ls.rates = append(ls.rates, band{key: key, rate: rate})
		}
	case rate == 0:
		ls.rates = slices.Delete(ls.rates, i, i+1)
	default:
		ls.rates[i].rate = rate
	}
	var total int64
	for _, b := range ls.rates {
		total += b.rate
	}
	if reported, ok := e.LookupInt(obs.KeyTotal); ok && reported != total {
		st.notes.add("link %s: reconstructed total %d disagrees with emulator total %d at tick %d", label, total, reported, e.VT)
	}

	over := total > ls.cap
	switch {
	case over && ls.open == nil:
		ls.open = &CongestionViolation{Link: label, Start: e.VT, End: -1, Peak: total, Cap: ls.cap}
		ls.keys = ls.keys[:0]
		ls.keepKeys()
	case over:
		if total > ls.open.Peak {
			ls.open.Peak = total
		}
		ls.keepKeys()
	case ls.open != nil:
		if ls.open.Start != e.VT {
			// A zero-length blip (two changes at the same instant) is
			// discarded, mirroring the emulator's interval recorder.
			ls.open.End = e.VT
			ls.open.Keys = ls.sortedKeys()
			ls.closed = append(ls.closed, *ls.open)
		}
		ls.open = nil
	}
}

// learn records d as the delay of the switch's link to the one named to.
func (sr *switchRec) learn(to string, d int64) {
	for i := range sr.out {
		if sr.out[i].to == to {
			sr.out[i].delay = d
			return
		}
	}
	sr.out = append(sr.out, outLink{to: to, delay: d})
}

// link returns the link labelled label, adding it with capacity cp if the
// auditor has not seen it.
func (st *state) link(label string, cp int64) *linkState {
	if ls := st.byLabel[label]; ls != nil {
		return ls
	}
	ls := &linkState{label: label, cap: cp}
	st.byLabel[label] = ls
	i, _ := slices.BinarySearchFunc(st.links, label, func(l *linkState, label string) int { return cmp.Compare(l.label, label) })
	st.links = slices.Insert(st.links, i, ls)
	return ls
}

// keepKeys adds the keys on the link to those seen while the open
// interval ran.
func (ls *linkState) keepKeys() {
	for _, b := range ls.rates {
		if !slices.Contains(ls.keys, b.key) {
			ls.keys = append(ls.keys, b.key)
		}
	}
}

// sortedKeys returns a sorted copy of the keys seen while the open
// interval ran.
func (ls *linkState) sortedKeys() []string {
	out := make([]string, len(ls.keys))
	copy(out, ls.keys)
	slices.Sort(out)
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
	var reconstructed []CongestionViolation
	for _, ls := range st.links {
		for _, c := range ls.closed {
			c.Keys = slices.Clone(c.Keys)
			reconstructed = append(reconstructed, c)
		}
		if ls.open != nil {
			still := *ls.open
			still.Keys = ls.sortedKeys()
			reconstructed = append(reconstructed, still)
			notes.add("link %s: overload still open when the trace ended", ls.label)
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
	cp := CriticalPath{Makespan: -1}
	n := 0
	for _, sr := range st.switches {
		if sr.timed() {
			n++
		}
	}
	if n > 0 {
		cp.Switches = make([]SwitchLane, 0, n)
	}
	minSched, maxApply := int64(-1), int64(-1)
	for _, sr := range st.switches {
		if !sr.timed() {
			continue // no timed-update activity; not part of the critical path
		}
		l := sr.lane
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
