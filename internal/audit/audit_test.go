package audit

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/chronus-sdn/chronus/internal/obs"
)

// ev builds a test event; attrs alternate key, value.
func ev(seq uint64, vt int64, name string, attrs ...string) obs.Event {
	e := obs.Event{Seq: seq, VT: vt, Name: name}
	for i := 0; i+1 < len(attrs); i += 2 {
		e.Attrs = append(e.Attrs, obs.Attr{K: attrs[i], V: attrs[i+1]})
	}
	return e
}

// The hand-built streams of the tests below;
// TestIncrementalReportMatchesFromScratch replays every one of them.
var (
	// One link with cap 10: key f/0 at 8 from tick 5, key g/0 at 8 from
	// tick 7 (total 16 > 10), g/0 gone at tick 12; then the emulator's
	// own span for the same overload.
	congestionStream = []obs.Event{
		ev(1, 5, "emu.rate", "link", "v1>v2", "key", "f/0", "rate", "8", "total", "8", "cap", "10", "delay", "1"),
		ev(2, 7, "emu.rate", "link", "v1>v2", "key", "g/0", "rate", "8", "total", "16", "cap", "10", "delay", "1"),
		ev(3, 12, "emu.rate", "link", "v1>v2", "key", "g/0", "rate", "0", "total", "8", "cap", "10", "delay", "1"),
		{Seq: 4, VT: 7, Dur: 5, Name: "emu.overload", Attrs: []obs.Attr{
			{K: "link", V: "v1>v2"}, {K: "peak", V: "16"}, {K: "cap", V: "10"}}},
	}

	// The emulator claims an overload the rate stream does not support.
	disagreementStream = []obs.Event{{Seq: 1, VT: 7, Dur: 5, Name: "emu.overload", Attrs: []obs.Attr{
		{K: "link", V: "v1>v2"}, {K: "peak", V: "16"}, {K: "cap", V: "10"}}}}

	// v1 -> v2 installed, then v2 -> v1 at the same tick: instantaneous
	// cycle.
	configCycleStream = []obs.Event{
		ev(1, 10, "sw.flowmod", "switch", "v1", "kind", "immediate", "key", "f/0", "cmd", "add", "next", "v2"),
		ev(2, 10, "sw.flowmod", "switch", "v2", "kind", "immediate", "key", "f/0", "cmd", "add", "next", "v1"),
	}

	// Initial path v1->v2->host. At tick 20, v1 flips to v3 and v3 points
	// back to v1 — but v1's flip lands at 20 while a packet emitted at 19
	// is still in flight toward v2: no instantaneous cycle ever exists
	// (v1->v3, v3->v1 *is* one; make it v3 -> v1 installed at 20 and v1
	// -> v3 at 21 so each instant is acyclic, yet a packet leaving v1 at
	// 21 reaches v3 at 22 and is sent back to v1, which now points to v3:
	// an in-flight loop).
	transientLoopStream = []obs.Event{
		// Provisioning at tick 0.
		ev(1, 0, "sw.flowmod", "switch", "v1", "kind", "immediate", "key", "f/0", "cmd", "add", "next", "v2"),
		ev(2, 0, "sw.flowmod", "switch", "v2", "kind", "immediate", "key", "f/0", "cmd", "add", "next", "host"),
		ev(3, 1, "emu.inject", "switch", "v1", "key", "f/0", "rate", "5"),
		// Delays become known from rate events.
		ev(4, 1, "emu.rate", "link", "v1>v2", "key", "f/0", "rate", "5", "total", "5", "cap", "10", "delay", "1"),
		ev(5, 1, "emu.rate", "link", "v1>v3", "key", "f/0", "rate", "0", "total", "0", "cap", "10", "delay", "1"),
		ev(6, 1, "emu.rate", "link", "v3>v1", "key", "f/0", "rate", "0", "total", "0", "cap", "10", "delay", "1"),
		// The update: v3 -> v1 at tick 20, v1 -> v3 at tick 21.
		ev(7, 20, "sw.apply", "switch", "v3", "skew", "0", "at", "20", "key", "f/0", "cmd", "add", "next", "v1"),
		ev(8, 21, "sw.apply", "switch", "v1", "skew", "0", "at", "21", "key", "f/0", "cmd", "mod", "next", "v3"),
	}

	// The transient-loop setup, but both switches flip at tick 20: a
	// one-shot that loops in flight.
	loopingStream = []obs.Event{
		ev(1, 0, "sw.flowmod", "switch", "v1", "kind", "immediate", "key", "f/0", "cmd", "add", "next", "v2"),
		ev(2, 0, "sw.flowmod", "switch", "v2", "kind", "immediate", "key", "f/0", "cmd", "add", "next", "host"),
		ev(3, 1, "emu.inject", "switch", "v1", "key", "f/0", "rate", "5"),
		ev(4, 1, "emu.rate", "link", "v1>v2", "key", "f/0", "rate", "5", "total", "5", "cap", "10", "delay", "1"),
		ev(5, 1, "emu.rate", "link", "v1>v3", "key", "f/0", "rate", "0", "total", "0", "cap", "10", "delay", "1"),
		ev(6, 1, "emu.rate", "link", "v3>v1", "key", "f/0", "rate", "0", "total", "0", "cap", "10", "delay", "1"),
		ev(7, 20, "sw.apply", "switch", "v3", "skew", "0", "at", "20", "key", "f/0", "cmd", "add", "next", "v1"),
		ev(8, 20, "sw.apply", "switch", "v1", "skew", "0", "at", "20", "key", "f/0", "cmd", "mod", "next", "v3"),
	}

	// A second flow that v2 blackholes.
	blackholeStream = []obs.Event{
		ev(9, 0, "sw.flowmod", "switch", "v1", "kind", "immediate", "key", "g/0", "cmd", "add", "next", "v2"),
		ev(10, 1, "emu.inject", "switch", "v1", "key", "g/0", "rate", "5"),
		ev(11, 1, "emu.rate", "link", "v1>v2", "key", "g/0", "rate", "5", "total", "10", "cap", "10", "delay", "1"),
		ev(12, 2, "emu.drop", "switch", "v2", "key", "g/0", "reason", "no_rule"),
	}

	// A timed flip of v1 to a direct host delivery: recv at 12, apply at
	// 30.
	cleanTimedStream = []obs.Event{
		ev(1, 0, "sw.flowmod", "switch", "v1", "kind", "immediate", "key", "f/0", "cmd", "add", "next", "v2"),
		ev(2, 0, "sw.flowmod", "switch", "v2", "kind", "immediate", "key", "f/0", "cmd", "add", "next", "host"),
		ev(3, 1, "emu.inject", "switch", "v1", "key", "f/0", "rate", "5"),
		ev(4, 1, "emu.rate", "link", "v1>v2", "key", "f/0", "rate", "5", "total", "5", "cap", "10", "delay", "1"),
		ev(5, 10, "sched", "switch", "v1"),
		ev(6, 11, "ctl.flowmod", "switch", "v1", "at", "30", "key", "f/0", "next", "host"),
		ev(7, 12, "sw.flowmod", "switch", "v1", "kind", "timed", "at", "30", "key", "f/0", "cmd", "mod", "next", "host"),
		ev(8, 13, "sw.barrier", "switch", "v1"),
		ev(9, 30, "sw.apply", "switch", "v1", "skew", "0", "at", "30", "key", "f/0", "cmd", "mod", "next", "host"),
	}

	// v2 never gets a rule; the emulator confirms the drop.
	observedDropStream = []obs.Event{
		ev(1, 0, "sw.flowmod", "switch", "v1", "kind", "immediate", "key", "f/0", "cmd", "add", "next", "v2"),
		ev(2, 1, "emu.inject", "switch", "v1", "key", "f/0", "rate", "5"),
		ev(3, 1, "emu.rate", "link", "v1>v2", "key", "f/0", "rate", "5", "total", "5", "cap", "10", "delay", "1"),
		ev(4, 2, "emu.drop", "switch", "v2", "key", "f/0", "reason", "no_rule"),
	}

	// Sequence numbers 3 and 7 only.
	seqGapStream = []obs.Event{
		ev(3, 0, "sw.barrier", "switch", "v1"),
		ev(7, 1, "sw.barrier", "switch", "v1"),
	}

	// Fed out of (VT, Seq) order.
	renderStream = []obs.Event{
		ev(2, 10, "sw.flowmod", "switch", "v2", "kind", "immediate", "key", "f/0", "cmd", "add", "next", "v1"),
		ev(1, 10, "sw.flowmod", "switch", "v1", "kind", "immediate", "key", "f/0", "cmd", "add", "next", "v2"),
		ev(3, 5, "emu.rate", "link", "v1>v2", "key", "f/0", "rate", "15", "total", "15", "cap", "10", "delay", "1"),
		ev(4, 9, "emu.rate", "link", "v1>v2", "key", "f/0", "rate", "0", "total", "0", "cap", "10", "delay", "1"),
	}

	// configCycleStream with its sequence numbers stripped: both events
	// share one (VT, Seq) key, so feed order alone orders them.
	unsequencedStream = []obs.Event{
		ev(0, 10, "sw.flowmod", "switch", "v1", "kind", "immediate", "key", "f/0", "cmd", "add", "next", "v2"),
		ev(0, 10, "sw.flowmod", "switch", "v2", "kind", "immediate", "key", "f/0", "cmd", "add", "next", "v1"),
	}

	// The looping one-shot, then five flows whose rules cycle between v6
	// and v7, one flow per tick from 30 to 70: two switches join the rule
	// history after f/0's replay ran, widening its window, and closed
	// config cycles pile up while reports carry the replay's loop.
	cycleChurnStream = cycleChurn()
)

func cycleChurn() []obs.Event {
	evs := slices.Clone(loopingStream)
	seq := uint64(len(evs))
	for i, key := range []string{"c1/0", "c2/0", "c3/0", "c4/0", "c5/0"} {
		vt := int64(30 + 10*i)
		evs = append(evs,
			ev(seq+1, vt, "sw.flowmod", "switch", "v6", "kind", "immediate", "key", key, "cmd", "add", "next", "v7"),
			ev(seq+2, vt, "sw.flowmod", "switch", "v7", "kind", "immediate", "key", key, "cmd", "add", "next", "v6"))
		seq += 2
	}
	return evs
}

// jsonlStream is configCycleStream as JSON Lines, a blank line between.
const jsonlStream = `{"seq":1,"vt":10,"name":"sw.flowmod","attrs":[{"k":"switch","v":"v1"},{"k":"kind","v":"immediate"},{"k":"key","v":"f/0"},{"k":"cmd","v":"add"},{"k":"next","v":"v2"}]}

{"seq":2,"vt":10,"name":"sw.flowmod","attrs":[{"k":"switch","v":"v2"},{"k":"kind","v":"immediate"},{"k":"key","v":"f/0"},{"k":"cmd","v":"add"},{"k":"next","v":"v1"}]}
`

// handBuiltStreams names every hand-built stream, the JSONL one decoded.
func handBuiltStreams(tb testing.TB) map[string][]obs.Event {
	tb.Helper()
	var jsonl []obs.Event
	if _, err := obs.ReadJSONL(strings.NewReader(jsonlStream), false, func(e obs.Event) error {
		jsonl = append(jsonl, e)
		return nil
	}); err != nil {
		tb.Fatal(err)
	}
	return map[string][]obs.Event{
		"blackhole-observed":    observedDropStream,
		"clean-timed":           cleanTimedStream,
		"config-cycle":          configCycleStream,
		"cycle-churn":           cycleChurnStream,
		"congestion":            congestionStream,
		"detector-disagreement": disagreementStream,
		"jsonl":                 jsonl,
		"render":                renderStream,
		"scratch-leak":          slices.Concat(loopingStream, blackholeStream),
		"seq-gaps":              seqGapStream,
		"transient-loop":        transientLoopStream,
		"unsequenced":           unsequencedStream,
	}
}

func TestCongestionReconstruction(t *testing.T) {
	a := New()
	a.Feed(congestionStream...)
	r := a.Report()
	if len(r.Congestion) != 1 {
		t.Fatalf("congestion = %+v, want 1 interval", r.Congestion)
	}
	c := r.Congestion[0]
	if c.Link != "v1>v2" || c.Start != 7 || c.End != 12 || c.Peak != 16 || c.Cap != 10 {
		t.Errorf("interval = %+v", c)
	}
	if want := []string{"f/0", "g/0"}; len(c.Keys) != 2 || c.Keys[0] != want[0] || c.Keys[1] != want[1] {
		t.Errorf("keys = %v, want %v", c.Keys, want)
	}
	if !r.DetectorsAgree || r.EmuOverloads != 1 {
		t.Errorf("DetectorsAgree=%v EmuOverloads=%d, want agreement with 1 span", r.DetectorsAgree, r.EmuOverloads)
	}
	if r.OK() {
		t.Error("report with congestion must not be OK")
	}
}

func TestDetectorDisagreementIsNoted(t *testing.T) {
	a := New()
	a.Feed(disagreementStream...)
	r := a.Report()
	if r.DetectorsAgree {
		t.Error("detectors must disagree when the rate stream shows no overload")
	}
	if len(r.Notes) == 0 {
		t.Error("disagreement should leave a note")
	}
}

func TestConfigCycleDetected(t *testing.T) {
	a := New()
	a.Feed(configCycleStream...)
	r := a.Report()
	if len(r.Loops) != 1 {
		t.Fatalf("loops = %+v, want 1", r.Loops)
	}
	l := r.Loops[0]
	if l.Kind != "config-cycle" || l.Tick != 10 || l.Cycle != "v1>v2>v1" {
		t.Errorf("loop = %+v", l)
	}
}

func TestTransientLoopViaReplay(t *testing.T) {
	a := New()
	a.Feed(transientLoopStream...)
	r := a.Report()
	var transient []LoopViolation
	for _, l := range r.Loops {
		if l.Kind == "transient-loop" {
			transient = append(transient, l)
		}
	}
	if len(transient) != 1 {
		t.Fatalf("loops = %+v, want one transient-loop", r.Loops)
	}
	if transient[0].Cycle != "v1>v3>v1" {
		t.Errorf("cycle = %q, want v1>v3>v1", transient[0].Cycle)
	}
	if r.Replay.Looped == 0 || r.Replay.Delivered == 0 {
		t.Errorf("replay = %+v, want both delivered and looped emissions", r.Replay)
	}
}

// TestReportScratchDoesNotLeak: the emission replay reuses its visited
// map and path slice. An auditor that reports a looping one-shot trace,
// then takes a blackhole trace and reports again, must say exactly what
// a fresh auditor fed everything at once says.
func TestReportScratchDoesNotLeak(t *testing.T) {
	a := New()
	a.Feed(loopingStream...)
	if first := a.Report(); len(first.Loops) == 0 || first.Replay.Looped == 0 {
		t.Fatalf("looping trace: loops %+v, replay %+v, want a loop", first.Loops, first.Replay)
	}
	a.Feed(blackholeStream...)
	second := a.Report()
	fresh := New()
	fresh.Feed(slices.Concat(loopingStream, blackholeStream)...)
	want := fresh.Report()
	if len(want.Blackholes) == 0 || len(want.Loops) == 0 {
		t.Fatalf("combined trace: loops %+v, blackholes %+v, want both", want.Loops, want.Blackholes)
	}
	if !reflect.DeepEqual(second, want) {
		t.Fatalf("second report differs from a fresh auditor's:\n%s\nvs\n%s", second, want)
	}
}

func TestCleanTimedUpdateAuditsClean(t *testing.T) {
	a := New()
	a.Feed(cleanTimedStream...)
	r := a.Report()
	if !r.OK() {
		t.Fatalf("expected clean audit, got:\n%s", r)
	}
	if len(r.Critical.Switches) != 1 {
		t.Fatalf("critical = %+v, want one switch", r.Critical)
	}
	s := r.Critical.Switches[0]
	if s.Switch != "v1" || s.Sched != 30 || s.Recv != 12 || s.Apply != 30 || s.Lead != 18 || s.Barrier != 13 {
		t.Errorf("lane = %+v", s)
	}
	if r.Critical.Gating != "v1" {
		t.Errorf("gating = %q, want v1", r.Critical.Gating)
	}
}

func TestBlackholeMergedWithObservedDrops(t *testing.T) {
	a := New()
	a.Feed(observedDropStream...)
	r := a.Report()
	if len(r.Blackholes) != 1 {
		t.Fatalf("blackholes = %+v, want 1", r.Blackholes)
	}
	b := r.Blackholes[0]
	if b.At != "v2" || !b.Observed {
		t.Errorf("blackhole = %+v, want observed drop at v2", b)
	}
}

func TestMissingEventsFromSeqGaps(t *testing.T) {
	a := New()
	a.Feed(seqGapStream...)
	if got := a.Report().MissingEvents; got != 5 {
		t.Errorf("MissingEvents = %d, want 5 (seq 1,2,4,5,6)", got)
	}
}

// TestMissingEventsIgnoresUnsequenced: events without a sequence number
// (Seq 0, as in a capture whose seq fields were stripped) carry no gap
// information. They must not wrap the count around, and the report says
// gap detection is off for them.
func TestMissingEventsIgnoresUnsequenced(t *testing.T) {
	for _, tc := range []struct {
		name string
		seqs []uint64
		want uint64
	}{
		{"unsequenced", []uint64{0, 0, 0}, 0},
		{"mixed", []uint64{0, 2, 3, 0, 5}, 2},
	} {
		a := New()
		for i, seq := range tc.seqs {
			a.Feed(ev(seq, int64(i), "sw.barrier", "switch", "v1"))
		}
		r := a.Report()
		if r.MissingEvents != tc.want {
			t.Errorf("%s: MissingEvents = %d, want %d", tc.name, r.MissingEvents, tc.want)
		}
		if !strings.Contains(r.String(), "gap detection is off") {
			t.Errorf("%s: no note that gap detection is off:\n%s", tc.name, r)
		}
	}
}

// TestMissingEventsMatchesSortedCount holds the count kept as events are
// fed to a sort of every sequence number, over random multisets fed in
// random order.
func TestMissingEventsMatchesSortedCount(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 1000; trial++ {
		var s seqSet
		var seqs []uint64
		for n := rng.Intn(30); n > 0; n-- {
			seq := 1 + uint64(rng.Intn(40))
			s.add(seq)
			seqs = append(seqs, seq)
			if got, want := s.missing(), sortedMissing(seqs); got != want {
				t.Fatalf("seqs %v: missing %d, want %d", seqs, got, want)
			}
		}
	}
}

// sortedMissing counts the gaps below the highest of seqs by sorting.
func sortedMissing(seqs []uint64) uint64 {
	if len(seqs) == 0 {
		return 0
	}
	s := slices.Clone(seqs)
	slices.Sort(s)
	missing := s[0] - 1
	for i := 1; i < len(s); i++ {
		if s[i] > s[i-1] {
			missing += s[i] - s[i-1] - 1
		}
	}
	return missing
}

func TestReadJSONL(t *testing.T) {
	a := New()
	if err := a.ReadJSONL(strings.NewReader(jsonlStream)); err != nil {
		t.Fatal(err)
	}
	r := a.Report()
	if r.Events != 2 || len(r.Loops) != 1 {
		t.Errorf("events=%d loops=%+v, want 2 events and the config cycle", r.Events, r.Loops)
	}

	bad := New()
	if err := bad.ReadJSONL(strings.NewReader("{not json}\n")); err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Errorf("err = %v, want line-numbered parse error", err)
	}
}

func TestReportRenderDeterministic(t *testing.T) {
	build := func() string {
		a := New()
		a.Feed(renderStream...)
		return a.Report().String()
	}
	if a, b := build(), build(); a != b {
		t.Errorf("render not deterministic:\n%s\nvs\n%s", a, b)
	}
}

// TestReadJSONLTolerant pins the torn-capture semantics: a final line
// cut off mid-write (no terminating newline) is warned about and
// skipped; the same bytes followed by a newline — or by more data — are
// corruption and fail with the line number.
func TestReadJSONLTolerant(t *testing.T) {
	const good = `{"seq":1,"vt":10,"name":"sw.flowmod","attrs":[{"k":"switch","v":"v1"}]}`

	t.Run("torn-last-line", func(t *testing.T) {
		a := New()
		n, warn, err := a.ReadJSONLTolerant(strings.NewReader(good + "\n" + `{"seq":2,"vt":11,"na`))
		if err != nil {
			t.Fatal(err)
		}
		if n != 1 {
			t.Fatalf("n = %d, want the 1 intact event", n)
		}
		if !strings.Contains(warn, "line 2") || !strings.Contains(warn, "torn") {
			t.Fatalf("warn = %q, want a line-numbered torn-line warning", warn)
		}
	})

	t.Run("terminated-bad-line-still-fails", func(t *testing.T) {
		a := New()
		_, _, err := a.ReadJSONLTolerant(strings.NewReader(good + "\n" + `{"seq":2,"vt":11,"na` + "\n"))
		if err == nil || !strings.Contains(err.Error(), "line 2") {
			t.Fatalf("err = %v, want line-numbered error for newline-terminated corruption", err)
		}
	})

	t.Run("mid-stream-corruption-still-fails", func(t *testing.T) {
		a := New()
		_, _, err := a.ReadJSONLTolerant(strings.NewReader(`{broken}` + "\n" + good + "\n"))
		if err == nil || !strings.Contains(err.Error(), "line 1") {
			t.Fatalf("err = %v, want line-numbered error for mid-stream corruption", err)
		}
	})

	t.Run("valid-unterminated-last-line", func(t *testing.T) {
		a := New()
		n, warn, err := a.ReadJSONLTolerant(strings.NewReader(good + "\n" + good))
		if err != nil || warn != "" || n != 2 {
			t.Fatalf("n=%d warn=%q err=%v, want both events accepted silently", n, warn, err)
		}
	})

	t.Run("empty", func(t *testing.T) {
		for _, input := range []string{"", "\n\n  \n"} {
			a := New()
			n, warn, err := a.ReadJSONLTolerant(strings.NewReader(input))
			if err != nil || warn != "" || n != 0 {
				t.Fatalf("input %q: n=%d warn=%q err=%v, want a clean zero-event read", input, n, warn, err)
			}
		}
	})

	// Strict ReadJSONL keeps failing on the torn tail too.
	t.Run("strict-torn-last-line", func(t *testing.T) {
		a := New()
		err := a.ReadJSONL(strings.NewReader(good + "\n" + `{"seq":2,"vt":11,"na`))
		if err == nil || !strings.Contains(err.Error(), "line 2") {
			t.Fatalf("err = %v, want strict reader to reject the torn line", err)
		}
	})
}
