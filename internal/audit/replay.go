package audit

import (
	"math"
	"slices"
	"sort"
)

// keyReplay is one injected key's emission replay: the loops, blackholes,
// counts and notes it found, and the inputs it read.
type keyReplay struct {
	inputs    replayInputs
	transient []LoopViolation
	holes     []BlackholeViolation
	stats     ReplayStats
	notes     noteSet
}

// replayInputs stands for everything a key's replay reads, as counters
// that move whenever it changes: the key's own rule and inject changes,
// how many switches hold a rule history (the emission window's span),
// and the learned link delays (maxDelay and every hop).
type replayInputs struct {
	changes, switches, delays int
}

func (s *ReplayStats) add(o ReplayStats) {
	s.Emissions += o.Emissions
	s.Delivered += o.Delivered
	s.Looped += o.Looped
	s.Blackholed += o.Blackholed
}

// finishLoops assembles the loop and blackhole verdicts: the
// instantaneous configuration cycles found while ingesting, plus a
// dynamic-flow replay of emissions through the reconstructed
// time-varying tables that catches Definition-2 violations — packets
// already in flight when rules flip — which no instantaneous check can
// see.
func (st *state) finishLoops(r *Report, notes noteSet) {
	// The frontier tick's batch is checked as if the trace ended here,
	// but stays open: a later feed may add flips at the same tick.
	loops := st.checkBatch(append([]LoopViolation(nil), st.cycles...))
	var holes []BlackholeViolation
	var stats ReplayStats
	for _, fr := range st.flows {
		if fr.source == "" {
			continue // never injected, or from no named switch
		}
		kr := st.replayed(fr)
		loops = append(loops, kr.transient...)
		holes = append(holes, kr.holes...)
		stats.add(kr.stats)
		for n := range kr.notes {
			notes[n] = true
		}
	}

	loopedKeys := make(map[string]bool)
	for _, l := range loops {
		loopedKeys[l.Key] = true
	}

	// TTL expiries are the emulator's own loop symptom: a packet only
	// exhausts its TTL by circulating. If the replay already explains the
	// key, the expiry is corroboration; otherwise it is evidence of a
	// loop the reconstruction missed, and is reported on its own.
	ttlKeys := make([]string, 0, len(st.ttlByKey))
	for k := range st.ttlByKey {
		ttlKeys = append(ttlKeys, k)
	}
	sort.Strings(ttlKeys)
	for _, k := range ttlKeys {
		if !loopedKeys[k] {
			loops = append(loops, LoopViolation{Kind: "ttl-expired", Key: k, At: "-", Tick: st.ttlByKey[k]})
			notes.add("flow %s: emulator reported TTL expiry but the replay found no loop", k)
		}
	}
	if st.ttlDrops > 0 {
		notes.add("emulator dropped %d packet(s) to TTL expiry", st.ttlDrops)
	}

	sort.Slice(loops, func(i, j int) bool {
		a, b := loops[i], loops[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Key != b.Key {
			return a.Key < b.Key
		}
		if a.Tick != b.Tick {
			return a.Tick < b.Tick
		}
		return a.Cycle < b.Cycle
	})
	r.Loops = loops

	// Merge the emulator's observed no-rule drops into the replayed
	// blackholes; drops the replay did not predict still get reported.
	replayed := make(map[[2]string]bool, len(holes))
	for i := range holes {
		h := &holes[i]
		at := [2]string{h.At, h.Key}
		replayed[at] = true
		if t, ok := st.dropNoRule[at]; ok {
			h.Observed = true
			if t < h.Tick {
				h.Tick = t
			}
		}
	}
	bh := holes
	observedOnly := make([][2]string, 0, len(st.dropNoRule))
	for at := range st.dropNoRule {
		if !replayed[at] {
			observedOnly = append(observedOnly, at)
		}
	}
	sort.Slice(observedOnly, func(i, j int) bool {
		if observedOnly[i][0] != observedOnly[j][0] {
			return observedOnly[i][0] < observedOnly[j][0]
		}
		return observedOnly[i][1] < observedOnly[j][1]
	})
	for _, at := range observedOnly {
		bh = append(bh, BlackholeViolation{At: at[0], Key: at[1], Tick: st.dropNoRule[at], Observed: true})
		notes.add("switch %s: emulator dropped flow %s with no rule but the replay did not predict it", at[0], at[1])
	}
	sort.Slice(bh, func(i, j int) bool {
		if bh[i].At != bh[j].At {
			return bh[i].At < bh[j].At
		}
		return bh[i].Key < bh[j].Key
	})
	r.Blackholes = bh
	r.Replay = stats
}

// replayed returns the flow's emission replay, rerunning it, in the
// storage of the last one, only when one of its inputs has changed since
// it last ran.
func (st *state) replayed(fr *flowRec) *keyReplay {
	in := replayInputs{changes: fr.changes, switches: st.ruleSwitches, delays: st.delayEpoch}
	kr := fr.replay
	if kr != nil && kr.inputs == in {
		return kr
	}
	if kr == nil {
		kr = new(keyReplay)
		fr.replay = kr
	}
	clear(kr.notes)
	*kr = keyReplay{inputs: in, transient: kr.transient[:0], holes: kr.holes[:0], notes: kr.notes}
	st.replay(fr.key, fr.source, kr)
	return kr
}

// replay traces every emission of key's window, departing src, through
// the reconstructed time-varying tables into kr.
func (st *state) replay(key, src string, kr *keyReplay) {
	injStart := int64(-1)
	for _, c := range st.injects(key) {
		if c.rate > 0 {
			injStart = c.tick
			break
		}
	}
	if injStart < 0 {
		return
	}

	// Rule changes after injection started are the interesting
	// instants; anything at or before injStart is provisioning the
	// flow rode in on from the outset. first and last bound them.
	first, last := int64(math.MaxInt64), int64(math.MinInt64)
	for _, sr := range st.switches {
		if r := sr.rule(key); r != nil {
			for _, c := range r.hist {
				if c.tick > injStart {
					first, last = min(first, c.tick), max(last, c.tick)
				}
			}
		}
	}

	// Emission window, mirroring dynflow.Validate: wide enough before
	// the first change that any packet still in flight when it lands
	// is covered, then extended past the last change until the
	// longest-lived base-window packet has arrived.
	start, end := injStart, injStart
	if first != math.MaxInt64 {
		span := int64(st.ruleSwitches+1) * st.maxDelay()
		start = max(first-span, injStart)
		end = last
	}
	rp := &st.rp
	rp.compile(st, key, src, kr)
	rp.c0 = first
	latest := max(end, rp.emit(start, end))
	rp.emit(end+1, latest)
	for i := range rp.holes {
		if rp.holes[i].Count > 0 {
			kr.holes = append(kr.holes, rp.holes[i])
		}
	}
	kr.transient = append(kr.transient, rp.loops...)
}

// maxDelay is the longest learned link delay, at least 1.
func (st *state) maxDelay() int64 {
	m := int64(1)
	for _, ls := range st.links {
		m = max(m, ls.delay)
	}
	return m
}

// Where a compiled hop sends a packet when it is not to a switch.
const (
	toNone int32 = -1 // no rule: the packet is dropped here
	toHost int32 = -2 // delivered locally
)

// hop is one compiled rule change of the key being replayed: from tick
// on, the switch forwards to next (a switch id, toNone or toHost) over a
// link of delay ticks, 0 while that link's delay is unobserved and not
// yet noted.
type hop struct {
	tick  int64
	next  int32
	delay int64
}

// replayer is one key's emission replay compiled to integer tables, with
// the scratch its traces reuse from key to key. Switches are numbered in
// the order the compile reaches them from the source, which is switch 0;
// a switch with no rule history for the key gets no hops and so
// blackholes whatever reaches it.
type replayer struct {
	kr  *keyReplay
	key string
	// c0 is the key's first rule change after injection started
	// (math.MaxInt64 if none): before it the tables never change.
	c0 int64

	names []string // id -> switch
	off   []int32  // id -> its hops are hops[off[id]:off[id+1]], tick-ascending
	hops  []hop

	rates []rateChange
	inj   int // the rate change in effect at the tick being emitted, -1 before the first

	stamp uint64   // the emission being traced
	seen  []uint64 // id -> stamp of the last emission that visited it
	pos   []int32  // id -> its index in path
	path  []int32
	cycle []string

	holes []BlackholeViolation // id -> the key's blackhole there, Count 0 if none
	loops []LoopViolation      // in the order found, one per cycle
}

// compile numbers src and every switch reachable from it through key's
// rule history and resolves each one's hops against the learned delays.
func (rp *replayer) compile(st *state, key, src string, kr *keyReplay) {
	rp.kr, rp.key = kr, key
	rp.rates, rp.inj = st.injects(key), -1
	rp.names, rp.off, rp.hops, rp.loops = rp.names[:0], rp.off[:0], rp.hops[:0], rp.loops[:0]
	rp.id(src)
	for i := 0; i < len(rp.names); i++ {
		sw := rp.names[i]
		rp.off = append(rp.off, int32(len(rp.hops)))
		for _, c := range st.hist(sw, key) {
			h := hop{tick: c.tick, next: toNone}
			switch c.next {
			case "":
			case "host":
				h.next = toHost
			default:
				h.next, h.delay = rp.id(c.next), st.delay(sw, c.next)
			}
			rp.hops = append(rp.hops, h)
		}
	}
	rp.off = append(rp.off, int32(len(rp.hops)))
	n := len(rp.names)
	// Stamps only grow, so a stale entry never matches a later emission.
	rp.seen = slices.Grow(rp.seen[:0], n)[:n]
	rp.pos = slices.Grow(rp.pos[:0], n)[:n]
	rp.holes = slices.Grow(rp.holes[:0], n)[:n]
	clear(rp.holes)
}

// id returns sw's number, giving it the next one if it has none. A key's
// path reaches a handful of switches, so a scan beats a map.
func (rp *replayer) id(sw string) int32 {
	if i := slices.Index(rp.names, sw); i >= 0 {
		return int32(i)
	}
	rp.names = append(rp.names, sw)
	return int32(len(rp.names) - 1)
}

// outcome is how one traced emission ended: at tick end, counted in
// status, and aggregated into loop or hole if it looped or blackholed.
type outcome struct {
	end    int64
	status *int
	loop   *LoopViolation
	hole   *BlackholeViolation
}

// emit traces every emission at ticks lo..hi that the injection rate
// covers, and returns the latest tick one of them ended at
// (math.MinInt64 if none did).
//
// Before c0 the tables are constant, so an emission at e that ends at
// e+F < c0 took the steady path. Every later emission of the same rate
// run (no inject change in between) that also ends before c0, that is
// e' < c0-F, takes it too, shifted by e'-e: only the first is traced and
// the rest are counted.
func (rp *replayer) emit(lo, hi int64) int64 {
	latest := int64(math.MinInt64)
	for t := lo; t <= hi; t++ {
		for rp.inj+1 < len(rp.rates) && rp.rates[rp.inj+1].tick <= t {
			rp.inj++
		}
		next := int64(math.MaxInt64) // the next inject change
		if rp.inj+1 < len(rp.rates) {
			next = rp.rates[rp.inj+1].tick
		}
		if rp.inj < 0 || rp.rates[rp.inj].rate <= 0 {
			t = next - 1
			continue
		}
		o := rp.trace(t)
		last := t
		if o.end < rp.c0 {
			last = min(hi, next-1, rp.c0-(o.end-t)-1)
			rp.repeat(o, last-t, last)
		}
		latest = max(latest, o.end+last-t)
		t = last
	}
	return latest
}

// repeat counts k more emissions ending as o did, the last emitted at
// lastEmit. Each ends later than o, so only the counts and LastEmit move.
func (rp *replayer) repeat(o outcome, k, lastEmit int64) {
	n := int(k)
	rp.kr.stats.Emissions += n
	*o.status += n
	if o.loop != nil {
		o.loop.Count += n
		o.loop.LastEmit = max(o.loop.LastEmit, lastEmit)
	}
	if o.hole != nil {
		o.hole.Count += n
	}
}

// trace follows a single emission departing the source at tick t
// through the compiled tables. Loops and blackholes it encounters are
// aggregated per cycle and per switch respectively.
func (rp *replayer) trace(t int64) outcome {
	stats := &rp.kr.stats
	stats.Emissions++
	emit := t
	rp.stamp++
	cur := int32(0)
	rp.seen[0], rp.pos[0] = rp.stamp, 0
	rp.path = append(rp.path[:0], 0)
	for {
		h := rp.ruleAt(cur, t)
		switch {
		case h == nil || h.next == toNone:
			stats.Blackholed++
			hole := &rp.holes[cur]
			if hole.Count == 0 {
				*hole = BlackholeViolation{At: rp.names[cur], Key: rp.key, Tick: t}
			}
			hole.Count++
			return outcome{end: t, status: &stats.Blackholed, hole: hole}
		case h.next == toHost:
			stats.Delivered++
			return outcome{end: t, status: &stats.Delivered}
		}
		if h.delay == 0 {
			if rp.kr.notes == nil {
				rp.kr.notes = make(noteSet)
			}
			rp.kr.notes.add("link %s>%s: no observed delay; replay assumes 1 tick", rp.names[cur], rp.names[h.next])
			h.delay = 1
		}
		t += h.delay
		next := h.next
		if rp.seen[next] == rp.stamp {
			stats.Looped++
			return outcome{end: t, status: &stats.Looped, loop: rp.loop(rp.path[rp.pos[next]:], next, t, emit)}
		}
		rp.seen[next], rp.pos[next] = rp.stamp, int32(len(rp.path))
		rp.path = append(rp.path, next)
		cur = next
	}
}

// ruleAt returns the hop switch id held for the key at tick t, or nil if
// no rule was installed then.
func (rp *replayer) ruleAt(id int32, t int64) *hop {
	for i := rp.off[id+1] - 1; i >= rp.off[id]; i-- {
		if rp.hops[i].tick <= t {
			return &rp.hops[i]
		}
	}
	return nil
}

// loop aggregates an emission at emit that, going round cycle, closed it
// by reaching at again at tick t.
func (rp *replayer) loop(cycle []int32, at int32, t, emit int64) *LoopViolation {
	rp.cycle = rp.cycle[:0]
	for _, id := range cycle {
		rp.cycle = append(rp.cycle, rp.names[id])
	}
	cyc := canonicalCycle(rp.cycle)
	i := slices.IndexFunc(rp.loops, func(l LoopViolation) bool { return l.Cycle == cyc })
	if i < 0 {
		i = len(rp.loops)
		rp.loops = append(rp.loops, LoopViolation{Kind: "transient-loop", Key: rp.key, At: rp.names[at], Tick: t, Cycle: cyc, FirstEmit: emit, LastEmit: emit})
	}
	l := &rp.loops[i]
	l.Count++
	l.FirstEmit = min(l.FirstEmit, emit)
	l.LastEmit = max(l.LastEmit, emit)
	l.Tick = min(l.Tick, t)
	return l
}
