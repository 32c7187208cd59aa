package audit

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/chronus-sdn/chronus/internal/obs"
)

// refReplay is the emission replay before it ran on compiled tables:
// every emission of the window traced hop by hop through the string-keyed
// rule histories, none counted. It is the oracle of state.replay.
type refReplay struct {
	*state
	visited   map[string]int
	path      []string
	transient map[string]*LoopViolation
	holes     map[[2]string]*BlackholeViolation
}

func newRefReplay(st *state) *refReplay {
	return &refReplay{
		state:     st,
		visited:   make(map[string]int),
		transient: make(map[string]*LoopViolation),
		holes:     make(map[[2]string]*BlackholeViolation),
	}
}

// replay traces every emission of key's window, departing src, through
// the reconstructed time-varying tables into kr.
func (st *refReplay) replay(key, src string, kr *keyReplay) {
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
	// flow rode in on from the outset.
	changeSet := make(map[int64]bool)
	for _, sr := range st.switches {
		for _, c := range st.hist(sr.name, key) {
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
		span := int64(historySwitches(st.state)+1) * st.maxDelay()
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

// traceOne follows a single emission of key, departing src at tick t,
// through the reconstructed tables, and returns its arrival (or drop)
// tick. Loops and blackholes it encounters are aggregated per (key,
// cycle) and (switch, key) respectively.
func (st *refReplay) traceOne(key, src string, t int64, kr *keyReplay) int64 {
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
		d := st.delay(cur, next)
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

// historySwitches counts the switches that hold a rule history for some
// key, by looking, not from the count the auditor keeps.
func historySwitches(st *state) int {
	n := 0
	for _, sr := range st.switches {
		if len(sr.rules) > 0 {
			n++
		}
	}
	return n
}

// rateAt returns key's injection rate in effect at tick t.
func (st *refReplay) rateAt(key string, t int64) int64 {
	cs := st.injects(key)
	for i := len(cs) - 1; i >= 0; i-- {
		if cs[i].tick <= t {
			return cs[i].rate
		}
	}
	return 0
}

// ruleAt returns the next hop sw's table held for key at tick t, or ""
// if no rule was installed then.
func (st *refReplay) ruleAt(sw, key string, t int64) string {
	cs := st.hist(sw, key)
	for i := len(cs) - 1; i >= 0; i-- {
		if cs[i].tick <= t {
			return cs[i].next
		}
	}
	return ""
}

// sortedReplay puts kr's loops and holes, which each replay lists in
// its own order, in one order.
func sortedReplay(kr *keyReplay) *keyReplay {
	out := *kr
	out.transient = slices.Clone(kr.transient)
	out.holes = slices.Clone(kr.holes)
	sort.Slice(out.transient, func(i, j int) bool { return out.transient[i].Cycle < out.transient[j].Cycle })
	sort.Slice(out.holes, func(i, j int) bool { return out.holes[i].At < out.holes[j].At })
	return &out
}

// checkReplayAgainstReference feeds evs to an auditor and holds every
// injected key's replay, and the Report, to the reference replay's. The
// reference Report is the same auditor's with the reference replays put
// in its per-key cache.
func checkReplayAgainstReference(tb testing.TB, evs []obs.Event) {
	tb.Helper()
	a := New()
	a.Feed(evs...)
	got := a.Report()
	st := a.st
	for _, fr := range st.flows {
		key, src := fr.key, fr.source
		if src == "" {
			continue
		}
		in := fr.replay.inputs
		fast := &keyReplay{inputs: in}
		st.replay(key, src, fast)
		ref := &keyReplay{inputs: in}
		newRefReplay(st).replay(key, src, ref)
		if f, r := sortedReplay(fast), sortedReplay(ref); !reflect.DeepEqual(f, r) {
			tb.Fatalf("flow %s: replay differs from the reference:\n%+v\nvs\n%+v", key, f, r)
		}
		fr.replay = ref
	}
	want := a.Report()
	if !reflect.DeepEqual(got, want) || got.String() != want.String() {
		tb.Fatalf("report differs from the reference replay's:\n%s\nvs\n%s", got, want)
	}
	gj, err := json.Marshal(got)
	if err != nil {
		tb.Fatal(err)
	}
	if wj, _ := json.Marshal(want); string(gj) != string(wj) {
		tb.Fatalf("report JSON differs from the reference replay's:\n%s\nvs\n%s", gj, wj)
	}
}

// The cases the rule-history generator must cover; each names one file
// of FuzzReplayMatchesReference's corpus.
var replayCaseNames = []string{
	"prefix-loop",         // an emission loops before the first change
	"prefix-hole",         // an emission blackholes before the first change
	"prefix-rate-gap",     // a rate-0 gap and a rate change before the first change
	"missing-delay",       // a traversed link has no observed delay
	"change-after-inject", // the first change lands at injStart+1
	"no-change",           // no rule changes after injection starts
	"next-no-history",     // a reachable next switch never holds a rule
}

// replayStream generates one flow's rule history from seed: up to six
// switches provisioned at or before injection starts, random later
// changes, rate-0 gaps and rate changes, and links some of whose delays
// are never observed.
func replayStream(seed int64) []obs.Event {
	rng := rand.New(rand.NewSource(seed))
	n := 3 + rng.Intn(4)
	sw := func(i int) string { return "v" + strconv.Itoa(i) }
	noHistory := make([]bool, n)
	for i := 1; i < n; i++ {
		noHistory[i] = rng.Intn(6) == 0
	}
	// nextOf picks a rule for switch i: another switch, the host, or none.
	nextOf := func(i int) string {
		switch r := rng.Intn(10); {
		case r < 3:
			return "host"
		case r < 4:
			return ""
		default:
			j := rng.Intn(n - 1)
			if j >= i {
				j++
			}
			return sw(j)
		}
	}
	var evs []obs.Event
	rule := func(vt int64, i int) {
		if noHistory[i] {
			return
		}
		next, cmd := nextOf(i), "add"
		if next == "" {
			cmd = "del"
		}
		evs = append(evs, ev(0, vt, "sw.flowmod", "switch", sw(i), "kind", "immediate", "key", "f/0", "cmd", cmd, "next", next))
	}
	inject := func(vt, rate int64) {
		evs = append(evs, ev(0, vt, "emu.inject", "switch", sw(0), "key", "f/0", "rate", strconv.FormatInt(rate, 10)))
	}

	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Intn(8) != 0 {
				evs = append(evs, ev(0, 0, "emu.rate", "link", sw(i)+">"+sw(j), "key", "f/0", "rate", "0", "cap", "100", "delay", strconv.Itoa(1+rng.Intn(3))))
			}
		}
	}
	injStart := int64(1 + rng.Intn(5))
	for i := 0; i < n; i++ {
		if rng.Intn(5) != 0 {
			rule(int64(rng.Intn(int(injStart)+1)), i)
		}
	}
	inject(injStart, 5)
	var c0 int64
	switch rng.Intn(6) {
	case 0:
		c0 = -1 // no change
	case 1:
		c0 = injStart + 1
	default:
		c0 = injStart + 1 + int64(rng.Intn(40))
	}
	if rng.Intn(2) == 0 {
		gap := injStart + 1 + int64(rng.Intn(20))
		inject(gap, 0)
		inject(gap+1+int64(rng.Intn(5)), 3)
	}
	if rng.Intn(2) == 0 {
		inject(injStart+1+int64(rng.Intn(30)), 7)
	}
	if c0 > 0 {
		rule(c0, rng.Intn(n))
		for k := rng.Intn(5); k > 0; k-- {
			rule(c0+int64(rng.Intn(20)), rng.Intn(n))
		}
	}
	if rng.Intn(3) == 0 {
		inject(injStart+1+int64(rng.Intn(60)), 0)
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].VT < evs[j].VT })
	for i := range evs {
		evs[i].Seq = uint64(i + 1)
	}
	return evs
}

// replayCases reports which of replayCaseNames the replay of key, fed
// from src, exercises.
func replayCases(st *state, key, src string) map[string]bool {
	cases := make(map[string]bool)
	ref := newRefReplay(st)
	injStart := int64(-1)
	for _, c := range st.injects(key) {
		if c.rate > 0 {
			injStart = c.tick
			break
		}
	}
	if injStart < 0 {
		return cases
	}
	c0, end := int64(math.MaxInt64), injStart
	for _, sr := range st.switches {
		for _, c := range st.hist(sr.name, key) {
			if c.tick > injStart {
				c0, end = min(c0, c.tick), max(end, c.tick)
			}
		}
	}
	cases["no-change"] = c0 == math.MaxInt64
	cases["change-after-inject"] = c0 == injStart+1

	// Reachable switches, and whether one of them never holds a rule.
	reach := map[string]bool{src: true}
	for queue := []string{src}; len(queue) > 0; queue = queue[1:] {
		for _, c := range st.hist(queue[0], key) {
			if c.next != "" && c.next != "host" && !reach[c.next] {
				reach[c.next] = true
				queue = append(queue, c.next)
			}
		}
	}
	for s := range reach {
		if len(st.hist(s, key)) == 0 && s != src {
			cases["next-no-history"] = true
		}
	}

	// The emissions the window holds before the first change.
	start := injStart
	if c0 != math.MaxInt64 {
		start = max(c0-int64(historySwitches(st)+1)*st.maxDelay(), injStart)
	}
	gap, changed, rate := false, false, int64(0)
	for t := start; t < c0 && t <= end; t++ {
		r := ref.rateAt(key, t)
		if r <= 0 {
			gap = gap || t > start
			continue
		}
		changed = changed || rate > 0 && r != rate
		rate = r
		kr := &keyReplay{}
		if ref.traceOne(key, src, t, kr) >= c0 {
			break
		}
		cases["prefix-loop"] = cases["prefix-loop"] || kr.stats.Looped > 0
		cases["prefix-hole"] = cases["prefix-hole"] || kr.stats.Blackholed > 0
		cases["prefix-rate-gap"] = cases["prefix-rate-gap"] || gap && changed
	}
	kr := &keyReplay{}
	ref.replay(key, src, kr)
	cases["missing-delay"] = len(kr.notes) > 0
	return cases
}

// streamCases feeds evs to an auditor and reports the cases its flow f/0
// exercises.
func streamCases(evs []obs.Event) map[string]bool {
	a := New()
	a.Feed(evs...)
	a.Report()
	return replayCases(a.st, "f/0", a.st.byFlow["f/0"].source)
}

// TestReplayMatchesReference holds the compiled, prefix-counting replay
// to the reference over every captured and hand-built stream, the
// emulation update after a long steady run, every prefix of the short
// streams, the back-to-back stream after each update, and 400 generated
// rule histories, which must between them cover every replayCaseNames
// case.
func TestReplayMatchesReference(t *testing.T) {
	streams := handBuiltStreams(t)
	streams["fig1-oneshot"] = fig1OneShotEvents(t)
	streams["emulation"] = emulationEvents(t, 50)
	streams["emulation-idle"] = emulationEvents(t, 2000)
	for name, evs := range streams {
		t.Run(name, func(t *testing.T) {
			checkReplayAgainstReference(t, evs)
			if len(evs) <= 300 {
				for cut := range evs {
					checkReplayAgainstReference(t, evs[:cut])
				}
			}
		})
	}
	t.Run("back-to-back", func(t *testing.T) {
		evs, cuts := backToBackEvents(t, 30)
		for _, cut := range cuts {
			checkReplayAgainstReference(t, evs[:cut])
		}
	})
	t.Run("generated", func(t *testing.T) {
		covered := make(map[string]int)
		for seed := int64(1); seed <= 400; seed++ {
			evs := replayStream(seed)
			checkReplayAgainstReference(t, evs)
			for c, ok := range streamCases(evs) {
				if ok {
					covered[c]++
				}
			}
		}
		for _, c := range replayCaseNames {
			if covered[c] == 0 {
				t.Errorf("no generated history covers %s", c)
			}
		}
	})
}

// TestReplayCorpusCoversEveryCase: FuzzReplayMatchesReference's corpus
// holds one seed per replayCaseNames case, named after it, whose
// generated history exercises that case.
func TestReplayCorpusCoversEveryCase(t *testing.T) {
	for _, c := range replayCaseNames {
		f, err := os.Open(filepath.Join("testdata", "fuzz", "FuzzReplayMatchesReference", c))
		if err != nil {
			t.Fatal(err)
		}
		var seed int64
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), "int64("); ok {
				if _, err := fmt.Sscanf(v, "%d)", &seed); err != nil {
					t.Fatal(err)
				}
			}
		}
		f.Close()
		if !streamCases(replayStream(seed))[c] {
			t.Errorf("corpus file %s: seed %d does not exercise it", c, seed)
		}
	}
}

// FuzzReplayMatchesReference holds the replay of a generated rule history
// to the reference replay's.
func FuzzReplayMatchesReference(f *testing.F) {
	f.Add(int64(1))
	f.Fuzz(func(t *testing.T, seed int64) {
		checkReplayAgainstReference(t, replayStream(seed))
	})
}
