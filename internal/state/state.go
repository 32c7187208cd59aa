// Package state is the time-travel observed-state store: it folds the
// trace/journal event stream — the same events internal/audit consumes
// — into tick-indexed snapshots of what the data plane actually did:
// per-switch flow tables (full rule-change history, so any past tick of
// the current run can be reconstructed), per-link utilization
// timeseries (a bounded ring of recent points, backed by journal replay
// for ticks the ring has evicted), and per-update overlays recording
// which in-flight update owns which pending rule changes.
//
// Layered on top is drift detection (see drift.go): each admitted
// update's planner-intended end-state — recorded at plan time as a
// state.intent trace event — is diffed against the observed tables and
// classified as converging, stranded, diverged or converged.
//
// The store is a pure function of the fed events: feeding the same
// sequence (live from the tracer ring, or replayed from a journal
// directory) produces byte-identical snapshot and drift bodies, which
// is what lets `mutp -state-from <journal-dir>` reproduce a dead
// daemon's GET /state and GET /drift byte for byte.
//
// Daemon restarts are first-class: a journal directory shared across
// runs contains several event streams whose sequence numbers each start
// over, and the store detects those regressions (or an explicit
// BeginRun after a boot-time prefeed) as run boundaries. A boundary
// resets the live tables and — crucially — kills every pending timed
// rule change of the dead run, which is exactly what turns a
// half-executed schedule into a `stranded` drift verdict: the
// restart-recovery signal.
package state

import (
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/graph"
	"github.com/chronus-sdn/chronus/internal/obs"
)

// DefaultRingCap bounds the per-link utilization ring: how many recent
// rate points each link retains in memory. Older points stay reachable
// through journal replay when a journal directory is configured.
const DefaultRingCap = 1024

// Options configures a Store.
type Options struct {
	// JournalDir, when set, is the durable journal backing the link
	// timelines: timeline reads older than the in-memory ring replay
	// the journal segments instead of reporting a gap.
	JournalDir string
	// RingCap bounds the per-link timeline ring (0 = DefaultRingCap).
	RingCap int
	// Obs, when set, receives the chronus_state_* gauges (tracked
	// updates, stranded count), refreshed on every drift report.
	Obs *obs.Registry
}

// ruleChange is one observed change of a (switch, key) rule. next ""
// records a deletion. recv, for timed applies, is the tick the switch
// received the FlowMod — which is what lets a time-travel snapshot
// reconstruct "received but not yet applied" for past ticks.
type ruleChange struct {
	run  int
	tick int64
	next string
	recv int64
}

// pendingMod is a timed FlowMod a switch has accepted but not yet
// applied.
type pendingMod struct {
	recv int64
	at   int64
	next string
	cmd  string
}

// sentMod records the controller-side send of a timed FlowMod —
// evidence that an intent reached the wire even when the switch-side
// receipt was lost to a crash.
type sentMod struct {
	tick int64
	at   int64
	next string
}

// dropMark is one emu.drop event: a key that started blackholing.
type dropMark struct {
	run  int
	tick int64
	key  string
}

// keyRec is one switch's record of one flow key: its rule history, and
// the timed FlowMod the switch holds for it and the controller's last
// send of one. Those two are of the current run only and valid while
// their flags are set: a run boundary clears the flags, since nothing
// pends across a daemon death.
type keyRec struct {
	key     string
	rules   []ruleChange
	pending pendingMod
	sent    sentMod

	hasPending, hasSent bool
}

// swState is one switch's observed state: a record per key it saw a
// rule change, a timed FlowMod or a send for, ascending by key, and its
// drops.
type swState struct {
	name  string
	keys  []keyRec
	drops []dropMark
}

// find returns where the switch's record of key is, or would go, in
// st.keys, and whether it is there.
func (st *swState) find(key string) (int, bool) {
	i := sort.Search(len(st.keys), func(i int) bool { return st.keys[i].key >= key })
	return i, i < len(st.keys) && st.keys[i].key == key
}

// rec returns the switch's record of key, nil if it has none.
func (st *swState) rec(key string) *keyRec {
	if st == nil {
		return nil
	}
	if i, ok := st.find(key); ok {
		return &st.keys[i]
	}
	return nil
}

// add returns the switch's record of key, adding an empty one if it has
// none.
func (st *swState) add(key string) *keyRec {
	i, ok := st.find(key)
	if !ok {
		st.keys = slices.Insert(st.keys, i, keyRec{key: key})
	}
	return &st.keys[i]
}

// point is one link-utilization sample: the link's total rate as of
// tick, in run.
type point struct {
	run   int
	tick  int64
	total int64
}

type linkState struct {
	name string
	cap  int64
	// points is the utilization ring: it grows to RingCap points, then
	// each new point overwrites the oldest, at head. at(i) reads the
	// i-th oldest; evicted counts the points overwritten.
	points  []point
	head    int
	evicted int
	total   int64
	peak    int64
}

// at returns the i-th oldest point the ring holds.
func (l *linkState) at(i int) *point {
	if i += l.head; i >= len(l.points) {
		i -= len(l.points)
	}
	return &l.points[i]
}

// push adds p as the newest point, overwriting the oldest once the ring
// holds max points.
func (l *linkState) push(p point, max int) {
	if len(l.points) < max {
		l.points = append(l.points, p)
		return
	}
	l.points[l.head] = p
	if l.head++; l.head == len(l.points) {
		l.head = 0
	}
	l.evicted++
}

// updKey identifies an update across runs: admission ids restart at 1
// with every daemon run sharing a journal directory.
type updKey struct {
	run int
	id  uint64
}

// updIntent is one recorded intent: what Intent.Emit wrote, plus the run
// and tick the store saw it in.
type updIntent struct {
	Intent
	run     int
	planned int64
}

// Store folds trace events into the observed-state model. All methods
// are safe for concurrent use.
type Store struct {
	mu sync.Mutex
	o  Options

	cursor  uint64 // live tracer cursor (Observe feeds)
	lastSeq uint64 // last folded Seq, for run-boundary detection
	missed  uint64 // events evicted from the ring before they were folded

	run      int     // current run number (0 until the first event)
	runEnds  []int64 // final lastTick of each completed run
	lastTick int64   // newest tick of the current run

	// switches and links are ascending by name, for the bodies; the maps
	// index them.
	switches []*swState
	links    []*linkState
	swByName map[string]*swState
	lkByName map[string]*linkState
	updates  map[updKey]*updIntent
	order    []updKey
}

// New builds a store and registers its gauge help strings.
func New(o Options) *Store {
	if o.RingCap <= 0 {
		o.RingCap = DefaultRingCap
	}
	if o.Obs != nil {
		o.Obs.Help("chronus_state_tracked_updates", "Updates with a recorded planner intent in the observed-state store.")
		o.Obs.Help("chronus_state_stranded_updates", "Updates stranded mid-schedule: half-executed with no further applies pending.")
	}
	return &Store{
		o:        o,
		swByName: map[string]*swState{},
		lkByName: map[string]*linkState{},
		updates:  map[updKey]*updIntent{},
	}
}

// Cursor returns the trace sequence number up to which live events have
// been folded; feed Observe the tracer page after it.
func (s *Store) Cursor() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cursor
}

// Observe folds a batch of live tracer events (as returned by
// Tracer.PageStats(store.Cursor(), 0)) and advances the cursor.
func (s *Store) Observe(events []obs.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range events {
		e := &events[i]
		if e.Seq > s.cursor {
			s.cursor = e.Seq
		}
		s.ingest(e)
	}
}

// NoteSkipped accounts for events the tracer ring evicted before they
// could be folded. They are lost to the live store (the journal, when
// configured, still has them) and surface as missed_events in
// snapshots, so a gap can never silently masquerade as ground truth.
func (s *Store) NoteSkipped(n uint64) {
	if n == 0 {
		return
	}
	s.mu.Lock()
	s.missed += n
	s.mu.Unlock()
}

// Prefeed folds events replayed from a journal written by earlier runs
// (or, offline, by all runs) without touching the live cursor. Sequence
// regressions inside the replayed stream are detected as run
// boundaries, exactly as journal.Replay warns about them.
func (s *Store) Prefeed(events []obs.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range events {
		s.ingest(&events[i])
	}
}

// BeginRun forces a run boundary: the caller (a daemon that just
// prefed the previous runs' journal) is about to feed a fresh run whose
// sequence numbers start over. A no-op before any event was folded.
func (s *Store) BeginRun() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.beginRunLocked()
}

// beginRunLocked closes the current run and resets the live surfaces:
// the tables' pending and sent FlowMods and the link totals die with the
// run (rule histories and intents are retained — they are the drift
// evidence).
func (s *Store) beginRunLocked() {
	if s.run == 0 {
		return
	}
	s.runEnds = append(s.runEnds, s.lastTick)
	s.run++
	s.lastTick = 0
	s.lastSeq = 0
	for _, st := range s.switches {
		for i := range st.keys {
			st.keys[i].hasPending, st.keys[i].hasSent = false, false
		}
	}
	for _, l := range s.links {
		l.total = 0
		l.peak = 0
	}
}

// offset returns the cumulative tick offset of run r: the summed final
// ticks of every run before it. cum(r, t) = offset(r) + t gives a
// monotonic coordinate across restarts, which is what drift ages are
// measured in.
func (s *Store) offset(r int) int64 {
	var o int64
	for i := 0; i < r-1 && i < len(s.runEnds); i++ {
		o += s.runEnds[i]
	}
	return o
}

// sw returns the switch named name, adding it if the store has not seen
// it.
func (s *Store) sw(name string) *swState {
	if st := s.swByName[name]; st != nil {
		return st
	}
	st := &swState{name: name}
	s.swByName[name] = st
	i, _ := slices.BinarySearchFunc(s.switches, name, func(st *swState, name string) int { return strings.Compare(st.name, name) })
	s.switches = slices.Insert(s.switches, i, st)
	return st
}

// link returns the link named name, adding it if the store has not seen
// it.
func (s *Store) link(name string) *linkState {
	if l := s.lkByName[name]; l != nil {
		return l
	}
	l := &linkState{name: name}
	s.lkByName[name] = l
	i, _ := slices.BinarySearchFunc(s.links, name, func(l *linkState, name string) int { return strings.Compare(l.name, name) })
	s.links = slices.Insert(s.links, i, l)
	return l
}

// ingest folds one event. Callers hold s.mu.
func (s *Store) ingest(e *obs.Event) {
	if e.Seq <= s.lastSeq {
		// Sequence numbers are strictly increasing within one daemon
		// run; a regression means a new run started writing to the same
		// journal directory.
		s.beginRunLocked()
	}
	s.lastSeq = e.Seq
	if s.run == 0 {
		s.run = 1
	}
	if e.VT > s.lastTick {
		s.lastTick = e.VT
	}
	switch e.Name {
	case obs.EvStateIntent:
		s.ingestIntent(e)
	case obs.EvSwFlowMod:
		st := s.sw(e.Attr(obs.KeySwitch))
		key := e.Attr(obs.KeyKey)
		cmd := e.Attr(obs.KeyCmd)
		next := e.Attr(obs.KeyNext)
		if e.Attr(obs.KeyKind) == "timed" {
			r := st.add(key)
			r.pending = pendingMod{recv: e.VT, at: e.AttrInt(obs.KeyAt), next: next, cmd: cmd}
			r.hasPending = true
			return
		}
		s.applyRule(st.add(key), cmd, next, e.VT, 0)
	case obs.EvSwApply:
		r := s.sw(e.Attr(obs.KeySwitch)).add(e.Attr(obs.KeyKey))
		recv := int64(0)
		if r.hasPending {
			recv = r.pending.recv
			r.hasPending = false
		}
		s.applyRule(r, e.Attr(obs.KeyCmd), e.Attr(obs.KeyNext), e.VT, recv)
	case obs.EvCtlFlowMod:
		r := s.sw(e.Attr(obs.KeySwitch)).add(e.Attr(obs.KeyKey))
		r.sent = sentMod{tick: e.VT, at: e.AttrInt(obs.KeyAt), next: e.Attr(obs.KeyNext)}
		r.hasSent = true
	case obs.EvEmuRate:
		l := s.link(e.Attr(obs.KeyLink))
		l.cap = e.AttrInt(obs.KeyCap)
		total := e.AttrInt(obs.KeyTotal)
		l.total = total
		if total > l.peak {
			l.peak = total
		}
		if n := len(l.points); n > 0 {
			if last := l.at(n - 1); last.run == s.run && last.tick == e.VT {
				last.total = total
				return
			}
		}
		l.push(point{run: s.run, tick: e.VT, total: total}, s.o.RingCap)
	case obs.EvEmuDrop:
		st := s.sw(e.Attr(obs.KeySwitch))
		st.drops = append(st.drops, dropMark{run: s.run, tick: e.VT, key: e.Attr(obs.KeyKey)})
	}
}

// applyRule appends one observed rule change to the key's history.
func (s *Store) applyRule(r *keyRec, cmd, next string, tick, recv int64) {
	if cmd == "del" {
		next = ""
	}
	r.rules = append(r.rules, ruleChange{run: s.run, tick: tick, next: next, recv: recv})
}

// ingestIntent parses a state.intent event: the planner-intended
// end-state recorded at plan time. The switches attribute packs the
// per-switch promises as "SW=NEXT@TICK;..." sorted by switch name.
func (s *Store) ingestIntent(e *obs.Event) {
	id := e.AttrUint(obs.KeyID)
	if id == 0 {
		return
	}
	u := &updIntent{run: s.run, planned: e.VT, Intent: Intent{
		ID:     id,
		Tenant: e.Attr(obs.KeyTenant),
		Flow:   e.Attr(obs.KeyFlow),
		Key:    e.Attr(obs.KeyKey),
		Kind:   e.Attr(obs.KeyKind),
		Method: e.Attr(obs.KeyMethod),
		Slack:  e.AttrInt(obs.KeySlack),
	}}
	if enc := e.Attr(obs.KeySwitches); enc != "" {
		u.Switches = make([]IntentSwitch, 0, strings.Count(enc, ";")+1)
		for rest, more := enc, true; more; {
			var part string
			part, rest, more = strings.Cut(rest, ";")
			eq := strings.IndexByte(part, '=')
			at := strings.LastIndexByte(part, '@')
			if eq < 0 || at < eq {
				continue
			}
			tick, _ := strconv.ParseInt(part[at+1:], 10, 64)
			u.Switches = append(u.Switches, IntentSwitch{Switch: part[:eq], Next: part[eq+1 : at], At: tick})
		}
	}
	slices.SortStableFunc(u.Switches, func(a, b IntentSwitch) int { return strings.Compare(a.Switch, b.Switch) })
	k := updKey{run: s.run, id: id}
	if _, dup := s.updates[k]; !dup {
		s.order = append(s.order, k)
	}
	s.updates[k] = u
}

// EncodeIntentSwitches packs per-switch intents the way state.intent
// events carry them ("SW=NEXT@TICK;...", sorted by switch name) — the
// emitters (chronusd, internal/admit) and the parser above share this
// one format.
func EncodeIntentSwitches(sws []IntentSwitch) string {
	sorted := append([]IntentSwitch(nil), sws...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Switch < sorted[j].Switch })
	var b strings.Builder
	for i, sw := range sorted {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(sw.Switch)
		b.WriteByte('=')
		b.WriteString(sw.Next)
		b.WriteByte('@')
		b.WriteString(strconv.FormatInt(sw.At, 10))
	}
	return b.String()
}

// IntentSwitch is one switch's slice of a plan: the next hop it must end
// up forwarding to, and the tick it is due.
type IntentSwitch struct {
	Switch string
	Next   string
	At     int64
}

// Promises renders a plan's per-switch end-state the way the drift
// detector verifies it: each switch must end up forwarding to its next
// hop on the final path fin ("host" at the destination). The switches
// are those s schedules, each due at its tick in s, or all of fin when s
// is nil. asOf >= 0 overrides the ticks: barrier-paced rounds and
// two-phase commit carry no per-switch apply tick, their intent holds "as
// of plan time" and converges as the execution proceeds.
func Promises(g *graph.Graph, fin graph.Path, s *dynflow.Schedule, asOf int64) []IntentSwitch {
	sws := make([]IntentSwitch, 0, len(fin))
	promise := func(v graph.NodeID, at int64) {
		if asOf >= 0 {
			at = asOf
		}
		next := "host"
		if nh := fin.NextHop(v); nh != graph.Invalid {
			next = g.Name(nh)
		}
		sws = append(sws, IntentSwitch{Switch: g.Name(v), Next: next, At: at})
	}
	if s == nil {
		for _, v := range fin {
			promise(v, asOf)
		}
		return sws
	}
	for v, tv := range s.Times {
		promise(v, int64(tv))
	}
	return sws
}

// Intent is one update's planner-intended end-state: what emitters hand
// to Emit and what ingestIntent parses back.
type Intent struct {
	ID       uint64
	Tenant   string
	Flow     string
	Key      string // flow key the switches' rules match ("flow/tag")
	Kind     string // "execute" (data plane) or "plan" (plan-only)
	Method   string
	Slack    int64 // tightest per-switch slack of the plan, in ticks
	Switches []IntentSwitch
}

// Emit records the intent as a state.intent point event at tick now.
// Emitters call it at plan time, before the first FlowMod goes out, so
// a daemon killed mid-schedule leaves the intent in its journal and the
// restarted daemon's drift report can prove what the dead run left
// unfinished. The attribute order is part of the wire format.
func (in Intent) Emit(tr *obs.Tracer, now int64) {
	tr.Point(now, obs.EvStateIntent,
		obs.A(obs.KeyID, in.ID), obs.A(obs.KeyTenant, in.Tenant), obs.A(obs.KeyFlow, in.Flow),
		obs.A(obs.KeyKey, in.Key), obs.A(obs.KeyKind, in.Kind), obs.A(obs.KeyMethod, in.Method),
		obs.A(obs.KeySlack, in.Slack), obs.A(obs.KeySwitches, EncodeIntentSwitches(in.Switches)))
}
