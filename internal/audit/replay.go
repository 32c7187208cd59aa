package audit

import "sort"

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
	for key, src := range st.source {
		if src == "" {
			continue // injected from no named switch
		}
		kr := st.replayed(key, src)
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

// replayed returns key's emission replay, rerunning it only when one of
// its inputs has changed since it last ran.
func (st *state) replayed(key, src string) *keyReplay {
	in := replayInputs{changes: st.changes[key], switches: len(st.ruleHist), delays: st.delayEpoch}
	if kr := st.replays[key]; kr != nil && kr.inputs == in {
		return kr
	}
	kr := &keyReplay{inputs: in}
	st.replay(key, src, kr)
	st.replays[key] = kr
	return kr
}

// replay traces every emission of key's window, departing src, through
// the reconstructed time-varying tables into kr.
func (st *state) replay(key, src string, kr *keyReplay) {
	injStart := int64(-1)
	for _, c := range st.inject[key] {
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
	// flow rode in on from the outset.
	changeSet := make(map[int64]bool)
	for _, perKey := range st.ruleHist {
		for _, c := range perKey[key] {
			if c.tick > injStart {
				changeSet[c.tick] = true
			}
		}
	}
	changes := make([]int64, 0, len(changeSet))
	for t := range changeSet {
		changes = append(changes, t)
	}
	sort.Slice(changes, func(i, j int) bool { return changes[i] < changes[j] })

	// Emission window, mirroring dynflow.Validate: wide enough before
	// the first change that any packet still in flight when it lands
	// is covered, then extended past the last change until the
	// longest-lived base-window packet has arrived.
	start, end := injStart, injStart
	if len(changes) > 0 {
		span := int64(len(st.ruleHist)+1) * st.maxDelay()
		start = changes[0] - span
		if start < injStart {
			start = injStart
		}
		end = changes[len(changes)-1]
	}
	clear(st.transient)
	clear(st.holes)
	latest := end
	for t := start; t <= end; t++ {
		if st.rateAt(key, t) <= 0 {
			continue
		}
		if arrival := st.traceOne(key, src, t, kr); arrival > latest {
			latest = arrival
		}
	}
	for t := end + 1; t <= latest; t++ {
		if st.rateAt(key, t) <= 0 {
			continue
		}
		st.traceOne(key, src, t, kr)
	}
	for _, l := range st.transient {
		kr.transient = append(kr.transient, *l)
	}
	for _, h := range st.holes {
		kr.holes = append(kr.holes, *h)
	}
}

// maxDelay is the longest learned link delay, at least 1.
func (st *state) maxDelay() int64 {
	m := int64(1)
	for _, d := range st.delays {
		if d > m {
			m = d
		}
	}
	return m
}

// traceOne follows a single emission of key, departing src at tick t,
// through the reconstructed tables, and returns its arrival (or drop)
// tick. Loops and blackholes it encounters are aggregated per (key,
// cycle) and (switch, key) respectively.
func (st *state) traceOne(key, src string, t int64, kr *keyReplay) int64 {
	kr.stats.Emissions++
	emit := t
	cur := src
	clear(st.visited)
	st.visited[src] = 0
	st.path = append(st.path[:0], src)
	for {
		next := st.ruleAt(cur, key, t)
		switch next {
		case "":
			kr.stats.Blackholed++
			h, ok := st.holes[[2]string{cur, key}]
			if !ok {
				h = &BlackholeViolation{At: cur, Key: key, Tick: t}
				st.holes[[2]string{cur, key}] = h
			}
			h.Count++
			return t
		case "host":
			kr.stats.Delivered++
			return t
		}
		d := st.delays[[2]string{cur, next}]
		if d <= 0 {
			d = 1
			if kr.notes == nil {
				kr.notes = make(noteSet)
			}
			kr.notes.add("link %s>%s: no observed delay; replay assumes 1 tick", cur, next)
		}
		t += d
		if i, ok := st.visited[next]; ok {
			kr.stats.Looped++
			cyc := canonicalCycle(st.path[i:])
			id := key + "|" + cyc
			l, ok := st.transient[id]
			if !ok {
				l = &LoopViolation{Kind: "transient-loop", Key: key, At: next, Tick: t, Cycle: cyc, FirstEmit: emit, LastEmit: emit}
				st.transient[id] = l
			}
			l.Count++
			if emit < l.FirstEmit {
				l.FirstEmit = emit
			}
			if emit > l.LastEmit {
				l.LastEmit = emit
			}
			if t < l.Tick {
				l.Tick = t
			}
			return t
		}
		st.visited[next] = len(st.path)
		st.path = append(st.path, next)
		cur = next
	}
}

// rateAt returns key's injection rate in effect at tick t.
func (st *state) rateAt(key string, t int64) int64 {
	cs := st.inject[key]
	for i := len(cs) - 1; i >= 0; i-- {
		if cs[i].tick <= t {
			return cs[i].rate
		}
	}
	return 0
}

// ruleAt returns the next hop sw's table held for key at tick t, or ""
// if no rule was installed then.
func (st *state) ruleAt(sw, key string, t int64) string {
	cs := st.ruleHist[sw][key]
	for i := len(cs) - 1; i >= 0; i-- {
		if cs[i].tick <= t {
			return cs[i].next
		}
	}
	return ""
}
