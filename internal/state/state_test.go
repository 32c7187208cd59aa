package state

import (
	"bytes"
	"os"
	"testing"

	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/journal"
	"github.com/chronus-sdn/chronus/internal/obs"
	"github.com/chronus-sdn/chronus/internal/topo"
)

func ev(seq uint64, vt int64, name string, attrs ...obs.Attr) obs.Event {
	return obs.Event{Seq: seq, VT: vt, Name: name, Attrs: attrs}
}

// intentEv builds a state.intent event the way the daemon emits it.
func intentEv(seq uint64, vt int64, id uint64, kind string, sws []IntentSwitch) obs.Event {
	return ev(seq, vt, "state.intent",
		obs.A("id", id), obs.A("tenant", "default"), obs.A("flow", "agg"),
		obs.A("key", "agg/0"), obs.A("kind", kind), obs.A("method", "chronus"),
		obs.A("slack", int64(10)), obs.A("switches", EncodeIntentSwitches(sws)))
}

func applyEv(seq uint64, vt int64, sw, next string) obs.Event {
	return ev(seq, vt, "sw.apply",
		obs.A("switch", sw), obs.A("skew", int64(0)), obs.A("at", vt),
		obs.A("key", "agg/0"), obs.A("cmd", "mod"), obs.A("next", next))
}

func timedFlowmodEv(seq uint64, vt, at int64, sw, next string) obs.Event {
	return ev(seq, vt, "sw.flowmod",
		obs.A("switch", sw), obs.A("kind", "timed"), obs.A("at", at),
		obs.A("key", "agg/0"), obs.A("cmd", "mod"), obs.A("next", next))
}

// scheduleEvents is a canonical two-switch timed update: intent at tick
// 10, FlowMods received at 12/13, applies due at 100 (R2) and 200 (R3).
func scheduleEvents() []obs.Event {
	return []obs.Event{
		intentEv(1, 10, 1, "execute", []IntentSwitch{
			{Switch: "R2", Next: "R5", At: 100},
			{Switch: "R3", Next: "R6", At: 200},
		}),
		timedFlowmodEv(2, 12, 100, "R2", "R5"),
		timedFlowmodEv(3, 13, 200, "R3", "R6"),
	}
}

// TestStoreDeterministicFold: the store is a pure function of the fed
// events — Observe (live) and Prefeed (replay) over the same sequence
// must produce byte-identical snapshot and drift bodies.
func TestStoreDeterministicFold(t *testing.T) {
	events := append(scheduleEvents(),
		applyEv(4, 100, "R2", "R5"),
		ev(5, 110, "emu.rate", obs.A("link", "R1>R2"), obs.A("key", "agg/0"),
			obs.A("rate", int64(300)), obs.A("total", int64(300)),
			obs.A("cap", int64(500)), obs.A("delay", int64(2))),
		applyEv(6, 200, "R3", "R6"),
	)

	live := New(Options{})
	live.Observe(events)
	replayed := New(Options{})
	replayed.Prefeed(events)

	for _, body := range []struct {
		name string
		a, b any
	}{
		{"state", live.StateBody(-1), replayed.StateBody(-1)},
		{"state?at=150", live.StateBody(150), replayed.StateBody(150)},
		{"drift", live.DriftBody(), replayed.DriftBody()},
	} {
		ab, err := Encode(body.a)
		if err != nil {
			t.Fatal(err)
		}
		bb, err := Encode(body.b)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ab, bb) {
			t.Errorf("%s: Observe and Prefeed diverge:\nlive:\n%s\nreplay:\n%s", body.name, ab, bb)
		}
	}
	if live.Cursor() != 6 {
		t.Fatalf("Observe cursor = %d, want 6", live.Cursor())
	}
	if replayed.Cursor() != 0 {
		t.Fatalf("Prefeed moved the cursor to %d", replayed.Cursor())
	}
}

// TestDriftLifecycle walks one update converging → converged, and a
// clobbered aftermath → diverged.
func TestDriftLifecycle(t *testing.T) {
	s := New(Options{})
	s.Observe(scheduleEvents())

	rep := s.DriftBody()
	if rep.Tracked != 1 || len(rep.Updates) != 1 {
		t.Fatalf("tracked = %+v", rep)
	}
	if got := rep.Updates[0].Status; got != "converging" {
		t.Fatalf("before applies: status = %q, want converging", got)
	}
	if rep.Counts["converging"] != 1 {
		t.Fatalf("counts = %v", rep.Counts)
	}

	// First apply lands: still converging (R3 pends).
	s.Observe([]obs.Event{applyEv(4, 100, "R2", "R5")})
	rep = s.DriftBody()
	u := rep.Updates[0]
	if u.Status != "converging" {
		t.Fatalf("after one apply: status = %q, want converging", u.Status)
	}
	states := map[string]string{}
	for _, sw := range u.Switches {
		states[sw.Switch] = sw.State
	}
	if states["R2"] != "applied" || states["R3"] != "pending" {
		t.Fatalf("switch states = %v", states)
	}

	// Second apply: converged, zero drift age.
	s.Observe([]obs.Event{applyEv(5, 200, "R3", "R6")})
	u = s.DriftBody().Updates[0]
	if u.Status != "converged" || u.DriftAgeTicks != 0 {
		t.Fatalf("after both applies: %+v", u)
	}

	// A later change overwrites R2's rule: clobbered → diverged.
	s.Observe([]obs.Event{applyEv(6, 250, "R2", "R9")})
	u = s.DriftBody().Updates[0]
	if u.Status != "diverged" {
		t.Fatalf("after clobber: status = %q, want diverged", u.Status)
	}
	for _, sw := range u.Switches {
		if sw.Switch == "R2" && (sw.State != "clobbered" || sw.ObservedNext != "R9") {
			t.Fatalf("R2 evidence = %+v", sw)
		}
	}
}

// TestRunBoundaryStrandsPending: a sequence regression (new daemon run
// on the same journal) kills the dead run's pending FlowMods, turning a
// half-executed schedule into a stranded verdict with applied+missing
// evidence.
func TestRunBoundaryStrandsPending(t *testing.T) {
	s := New(Options{})
	s.Prefeed(append(scheduleEvents(), applyEv(4, 100, "R2", "R5")))
	// The daemon dies before R3's tick-200 apply; the restart's stream
	// starts over at seq 1.
	s.BeginRun()
	s.Observe([]obs.Event{ev(1, 5, "ctl.send", obs.A("switch", "R1"))})

	rep := s.DriftBody()
	if rep.Run != 2 {
		t.Fatalf("run = %d, want 2", rep.Run)
	}
	if len(rep.Updates) != 1 {
		t.Fatalf("updates = %+v", rep.Updates)
	}
	u := rep.Updates[0]
	if u.Status != "stranded" || u.Run != 1 {
		t.Fatalf("dead-run update = %+v", u)
	}
	states := map[string]string{}
	for _, sw := range u.Switches {
		states[sw.Switch] = sw.State
	}
	if states["R2"] != "applied" || states["R3"] != "missing" {
		t.Fatalf("switch states = %v, want R2 applied, R3 missing", states)
	}
	// Dead-run stranding ages from the moment the run died: cum now is
	// runEnd(1)=100 plus the new run's lastTick 5.
	if u.DriftAgeTicks != 5 {
		t.Fatalf("drift age = %d, want 5", u.DriftAgeTicks)
	}
	if rep.Counts["stranded"] != 1 {
		t.Fatalf("counts = %v", rep.Counts)
	}

	// The restart's own state snapshot no longer lists the dead run's
	// update overlay (it belongs to run 1), but drift keeps it.
	snap := s.StateBody(-1)
	if len(snap.Updates) != 0 {
		t.Fatalf("snapshot leaked dead-run overlays: %+v", snap.Updates)
	}
}

// TestPlanOnlyIntentIsPlanned: kind != "execute" never expects applies.
func TestPlanOnlyIntentIsPlanned(t *testing.T) {
	s := New(Options{})
	s.Observe([]obs.Event{intentEv(1, 10, 7, "plan", []IntentSwitch{{Switch: "R2", Next: "R5", At: 100}})})
	u := s.DriftBody().Updates[0]
	if u.Status != "planned" || u.DriftAgeTicks != 0 {
		t.Fatalf("plan-only update = %+v", u)
	}
}

// TestTimeTravelPending: a past-tick snapshot reconstructs "received
// but not yet applied" from the rule history's receive stamps, even
// after the apply has long landed.
func TestTimeTravelPending(t *testing.T) {
	s := New(Options{})
	s.Observe(append(scheduleEvents(),
		applyEv(4, 100, "R2", "R5"),
		applyEv(5, 200, "R3", "R6"),
	))

	now := s.StateBody(-1)
	if now.TimeTravel {
		t.Fatalf("live snapshot marked time_travel: %+v", now)
	}
	for _, sw := range now.Switches {
		if len(sw.Pending) != 0 {
			t.Fatalf("live snapshot still pending: %+v", sw)
		}
	}

	past := s.StateBody(150)
	if !past.TimeTravel || past.At != 150 || past.Now != 200 {
		t.Fatalf("snapshot header = %+v", past)
	}
	var r2Applied, r3Pending bool
	for _, sw := range past.Switches {
		switch sw.Switch {
		case "R2":
			for _, r := range sw.Rules {
				if r.Key == "agg/0" && r.Next == "R5" && r.Since == 100 {
					r2Applied = true
				}
			}
		case "R3":
			for _, p := range sw.Pending {
				if p.Key == "agg/0" && p.At == 200 && p.Next == "R6" && p.Received == 13 {
					r3Pending = true
				}
			}
		}
	}
	if !r2Applied || !r3Pending {
		t.Fatalf("at tick 150: r2Applied=%v r3Pending=%v: %+v", r2Applied, r3Pending, past.Switches)
	}
	// The overlay mirrors it: update still converging at tick 150 with
	// R3 outstanding.
	if len(past.Updates) != 1 || past.Updates[0].Status != "converging" {
		t.Fatalf("overlay at 150 = %+v", past.Updates)
	}
	if got := past.Updates[0].PendingSwitches; len(got) != 1 || got[0] != "R3" {
		t.Fatalf("pending switches = %v", got)
	}
}

func rateEv(seq uint64, vt, total int64) obs.Event {
	return ev(seq, vt, "emu.rate", obs.A("link", "R1>R2"), obs.A("key", "agg/0"),
		obs.A("rate", total), obs.A("total", total),
		obs.A("cap", int64(500)), obs.A("delay", int64(2)))
}

// TestLinkTimelineRingEviction: a full ring evicts oldest-first; with
// no journal the gap is reported, never papered over.
func TestLinkTimelineRingEviction(t *testing.T) {
	s := New(Options{RingCap: 4})
	var events []obs.Event
	for i := 0; i < 10; i++ {
		events = append(events, rateEv(uint64(i+1), int64(10*(i+1)), int64(100+i)))
	}
	s.Observe(events)

	tl, ok := s.LinkTimeline("R1>R2", 0)
	if !ok {
		t.Fatal("link unknown")
	}
	if len(tl.Points) != 4 || tl.Points[0].At != 70 || tl.Points[3].At != 100 {
		t.Fatalf("ring points = %+v", tl.Points)
	}
	if tl.EvictedPoints != 6 || tl.Source != "ring" {
		t.Fatalf("timeline = %+v", tl)
	}

	// A window the ring still covers reports no eviction.
	tl, _ = s.LinkTimeline("R1>R2", 70)
	if tl.EvictedPoints != 0 || len(tl.Points) != 4 {
		t.Fatalf("covered window = %+v", tl)
	}

	if _, ok := s.LinkTimeline("R9>R10", 0); ok {
		t.Fatal("unknown link reported ok")
	}
}

// TestLinkTimelineJournalBackfill: when a journal directory backs the
// store, timeline reads past the ring replay the evicted points.
func TestLinkTimelineJournalBackfill(t *testing.T) {
	dir := t.TempDir()
	jw, err := journal.Open(journal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var events []obs.Event
	for i := 0; i < 10; i++ {
		events = append(events, rateEv(uint64(i+1), int64(10*(i+1)), int64(100+i)))
	}
	for _, e := range events {
		jw.Record(e)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}

	s := New(Options{RingCap: 4, JournalDir: dir})
	s.Observe(events)
	tl, ok := s.LinkTimeline("R1>R2", 0)
	if !ok {
		t.Fatal("link unknown")
	}
	if tl.Source != "ring+journal" {
		t.Fatalf("source = %q, want ring+journal", tl.Source)
	}
	if len(tl.Points) != 10 {
		t.Fatalf("backfilled points = %+v", tl.Points)
	}
	for i, p := range tl.Points {
		if p.At != int64(10*(i+1)) || p.Total != int64(100+i) {
			t.Fatalf("point %d = %+v", i, p)
		}
	}
}

// TestFromJournalMatchesPrefeed: the offline constructor is the same
// fold as a manual Prefeed over ReadAll.
func TestFromJournalMatchesPrefeed(t *testing.T) {
	dir := t.TempDir()
	jw, err := journal.Open(journal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	events := append(scheduleEvents(), applyEv(4, 100, "R2", "R5"))
	for _, e := range events {
		jw.Record(e)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}

	fromJ, stats, err := FromJournal(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Events != len(events) {
		t.Fatalf("stats.Events = %d, want %d", stats.Events, len(events))
	}
	manual := New(Options{JournalDir: dir})
	manual.Prefeed(events)

	a, _ := Encode(fromJ.DriftBody())
	b, _ := Encode(manual.DriftBody())
	if !bytes.Equal(a, b) {
		t.Fatalf("FromJournal drift diverges from Prefeed:\n%s\nvs\n%s", a, b)
	}
}

// TestEncodeIntentSwitchesRoundTrip: the emitters' wire format parses
// back into the same sorted promises.
func TestEncodeIntentSwitchesRoundTrip(t *testing.T) {
	in := []IntentSwitch{
		{Switch: "R7", Next: "R8", At: 300},
		{Switch: "R2", Next: "R5", At: 100},
		{Switch: "R3", Next: "host", At: 200},
	}
	enc := EncodeIntentSwitches(in)
	if enc != "R2=R5@100;R3=host@200;R7=R8@300" {
		t.Fatalf("encoded = %q", enc)
	}
	s := New(Options{})
	s.Observe([]obs.Event{intentEv(1, 10, 3, "execute", in)})
	u := s.DriftBody().Updates[0]
	if len(u.Switches) != 3 {
		t.Fatalf("parsed switches = %+v", u.Switches)
	}
	want := []struct {
		sw, next string
		at       int64
	}{{"R2", "R5", 100}, {"R3", "host", 200}, {"R7", "R8", 300}}
	for i, w := range want {
		got := u.Switches[i]
		if got.Switch != w.sw || got.IntendedNext != w.next || got.IntendedAt != w.at {
			t.Fatalf("switch %d = %+v, want %+v", i, got, w)
		}
	}
}

// TestNoteSkippedSurfacesMissedEvents: ring gaps must show up in the
// snapshot rather than silently posing as ground truth.
func TestNoteSkippedSurfacesMissedEvents(t *testing.T) {
	s := New(Options{})
	s.Observe(scheduleEvents())
	s.NoteSkipped(7)
	if got := s.StateBody(-1).MissedEvents; got != 7 {
		t.Fatalf("missed_events = %d, want 7", got)
	}
}

// TestIntentEmitMatchesFrozenWireFormat: bench/plant.go carries its own
// copy of the state.intent emitter (the benchmark is frozen), so the
// attribute order and value formatting of Intent.Emit are a wire format
// two writers must agree on. The golden line was written by the emitter
// this package replaced, for the same Fig. 1 schedule; Promises covers
// the three due-tick shapes (per switch, all as of one tick, whole path).
func TestIntentEmitMatchesFrozenWireFormat(t *testing.T) {
	want, err := os.ReadFile("testdata/intent.golden.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	in := topo.Fig1Example()
	sched := dynflow.NewSchedule(170)
	for i, v := range in.Fin[:len(in.Fin)-1] {
		sched.Set(v, dynflow.Tick(170+2*i))
	}
	tr := obs.NewTracer(obs.TracerOptions{})
	Intent{ID: 7, Tenant: "bench", Flow: "agg", Key: "agg/0", Kind: "execute", Method: "chronus",
		Slack: 2, Switches: Promises(in.G, in.Fin, sched, -1)}.Emit(tr, 120)
	var got bytes.Buffer
	if err := tr.WriteJSONL(&got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("state.intent line drifted from the frozen format:\n got %s\nwant %s", got.Bytes(), want)
	}

	if enc := EncodeIntentSwitches(Promises(in.G, in.Fin, sched, 9)); enc != "v1=v5@9;v2=v6@9;v3=v2@9;v4=v3@9;v5=v4@9" {
		t.Fatalf("scheduled switches as of tick 9 = %q", enc)
	}
	if enc := EncodeIntentSwitches(Promises(in.G, in.Fin, nil, 9)); enc != "v1=v5@9;v2=v6@9;v3=v2@9;v4=v3@9;v5=v4@9;v6=host@9" {
		t.Fatalf("whole final path as of tick 9 = %q", enc)
	}
}
