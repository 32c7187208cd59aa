package audit

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/chronus-sdn/chronus/internal/controller"
	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/obs"
	"github.com/chronus-sdn/chronus/internal/scheme"
	"github.com/chronus-sdn/chronus/internal/sim"
	"github.com/chronus-sdn/chronus/internal/topo"
)

// fig1OneShotEvents rebuilds the trace `mutp -instance fig1 -scheme
// oneshot -audit` audits, whose report cmd/mutp's
// audit_fig1_oneshot.golden pins: the one-shot schedule on virtual
// sessions at seed 1, every switch's sched marker recorded up front at
// its planned tick, the execution under one root span.
func fig1OneShotEvents(tb testing.TB) []obs.Event {
	tb.Helper()
	in := topo.Fig1Example()
	res, err := scheme.Solve("oneshot", in, scheme.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	tr := obs.NewTracer(obs.TracerOptions{})
	h, c, f, err := controller.Boot(in, "f", nil, controller.Options{Seed: 1, Obs: obs.NewRegistry(), Trace: tr})
	if err != nil {
		tb.Fatal(err)
	}
	h.AdvanceBy(controller.Headroom)
	s := res.Schedule.Shifted(dynflow.Tick(h.Now()) + controller.Headroom)
	for _, v := range in.G.Nodes() {
		if at, ok := s.Times[v]; ok {
			tr.Point(int64(at), obs.EvSched, obs.A(obs.KeySwitch, in.G.Name(v)))
		}
	}
	root := tr.StartSpan(int64(h.Now()), "update", 0, obs.A("method", "replay"))
	c.SetSpan(root.SpanID())
	if err := c.ExecuteTimed(in, s, f); err != nil {
		tb.Fatal(err)
	}
	c.SetSpan(0)
	h.AdvanceTo(sim.Time(s.End()) + sim.Time(in.Init.Delay(in.G)+in.Fin.Delay(in.G)) + 10)
	root.End(int64(h.Now()), obs.A("outcome", "ok"))
	return tr.Events(0)
}

// checkSplits feeds evs to one auditor chunk by chunk — cuts holds each
// chunk's end — and holds the Report after every chunk to a fresh
// auditor's over the same prefix, as values and as rendered text.
// Reports already returned must not change while later chunks fold. It
// returns how many times the auditor rebuilt.
func checkSplits(tb testing.TB, evs []obs.Event, cuts []int) int {
	tb.Helper()
	a := New()
	var got, want []*Report
	var texts []string
	prev := 0
	for _, cut := range cuts {
		a.Feed(evs[prev:cut]...)
		prev = cut
		g := a.Report()
		fresh := New()
		fresh.Feed(evs[:cut]...)
		w := fresh.Report()
		if !reflect.DeepEqual(g, w) || g.String() != w.String() {
			tb.Fatalf("report after %d of %d events (cuts %v) differs from a fresh auditor's:\n%s\nvs\n%s", cut, len(evs), cuts, g, w)
		}
		got, want, texts = append(got, g), append(want, w), append(texts, g.String())
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) || got[i].String() != texts[i] {
			tb.Fatalf("report %d of %d changed while later chunks folded:\n%s\nvs\n%s", i+1, len(got), got[i], want[i])
		}
	}
	return a.rebuilds
}

// randomCuts splits n events into one to twelve non-empty contiguous
// chunks and returns each chunk's end.
func randomCuts(rng *rand.Rand, n int) []int {
	if n == 0 {
		return []int{0}
	}
	ends := map[int]bool{n: true}
	for k := 1 + rng.Intn(min(n, 12)); len(ends) < k; {
		ends[1+rng.Intn(n)] = true
	}
	cuts := make([]int, 0, len(ends))
	for c := range ends {
		cuts = append(cuts, c)
	}
	sort.Ints(cuts)
	return cuts
}

// TestIncrementalReportMatchesFromScratch holds the fold-forward Report
// to the from-scratch one over every hand-built stream and three
// captured executions: the fig1 one-shot trace behind the mutp golden,
// one timed EmulationTopo update, and 30 back-to-back two-phase updates
// shaped like exec-paced. Each stream is fed in seeded random contiguous
// splits, in order and shuffled, with a Report after every split, and
// every report must equal a fresh auditor's. In order, only the two
// streams built out of (VT, Seq) order rebuild; shuffled, a captured
// stream does.
func TestIncrementalReportMatchesFromScratch(t *testing.T) {
	fig1 := fig1OneShotEvents(t)
	golden, err := os.ReadFile(filepath.Join("..", "..", "cmd", "mutp", "testdata", "audit_fig1_oneshot.golden"))
	if err != nil {
		t.Fatal(err)
	}
	fresh := New()
	fresh.Feed(fig1...)
	if r := fresh.Report().String(); !strings.Contains(string(golden), r) {
		t.Fatalf("the fig1 stream's report is not the golden's:\n%s", r)
	}
	backToBack, perUpdate := backToBackEvents(t, 30)
	captured := map[string][]obs.Event{
		"fig1-oneshot": fig1,
		"emulation":    emulationEvents(t, 50),
		"back-to-back": backToBack,
	}

	t.Run("back-to-back-per-update", func(t *testing.T) {
		if n := checkSplits(t, backToBack, perUpdate); n != 0 {
			t.Errorf("%d rebuilds reporting after every update, want 0", n)
		}
	})

	streams := handBuiltStreams(t)
	for name, evs := range captured {
		streams[name] = evs
	}
	names := make([]string, 0, len(streams))
	for name := range streams {
		names = append(names, name)
	}
	sort.Strings(names)
	trials := 5
	if testing.Short() {
		trials = 2
	}
	for _, name := range names {
		evs := streams[name]
		_, isCaptured := captured[name]
		inOrder := name != "render" && name != "scratch-leak"
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			if len(evs) <= 300 {
				every := make([]int, len(evs))
				for i := range every {
					every[i] = i + 1
				}
				if n := checkSplits(t, evs, every); inOrder && n != 0 {
					t.Errorf("%d rebuilds reporting after every event, want 0", n)
				}
			}
			shuffledRebuilds := 0
			for trial := 0; trial < trials; trial++ {
				if n := checkSplits(t, evs, randomCuts(rng, len(evs))); inOrder && n != 0 {
					t.Errorf("trial %d: %d rebuilds on in-order splits, want 0", trial, n)
				}
				shuffled := slices.Clone(evs)
				rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
				shuffledRebuilds += checkSplits(t, shuffled, randomCuts(rng, len(shuffled)))
			}
			if isCaptured && shuffledRebuilds == 0 {
				t.Error("shuffled feeds never rebuilt")
			}
		})
	}
}

// FuzzAuditSplits feeds one test stream, chosen by pick, in the chunks
// sizes describes — each byte one chunk of byte+1 events, the rest in a
// last chunk — after swapping the events at positions i and j, which
// usually puts one out of order and forces a rebuild. The report after
// every chunk must equal a fresh auditor's.
func FuzzAuditSplits(f *testing.F) {
	streams := handBuiltStreams(f)
	streams["fig1-oneshot"] = fig1OneShotEvents(f)
	streams["emulation"] = emulationEvents(f, 50)
	names := make([]string, 0, len(streams))
	for name := range streams {
		names = append(names, name)
	}
	sort.Strings(names)
	f.Add(uint8(0), []byte{1, 0, 2}, uint16(0), uint16(2))
	f.Fuzz(func(t *testing.T, pick uint8, sizes []byte, i, j uint16) {
		evs := slices.Clone(streams[names[int(pick)%len(names)]])
		if n := len(evs); n > 0 {
			a, b := int(i)%n, int(j)%n
			evs[a], evs[b] = evs[b], evs[a]
		}
		var cuts []int
		at := 0
		for _, s := range sizes {
			if at == len(evs) {
				break
			}
			at = min(len(evs), at+int(s)+1)
			cuts = append(cuts, at)
		}
		if at < len(evs) || len(cuts) == 0 {
			cuts = append(cuts, len(evs))
		}
		checkSplits(t, evs, cuts)
	})
}

// TestFeedTracerPagesWhileRecording feeds an auditor the tracer's own
// pages — windows onto its storage, kept as batches rather than copied —
// while another goroutine records 30 back-to-back updates into a
// 64-event tracer, so pages are read while the tracer appends and
// evicts (CI runs it under -race). Every report equals a fresh auditor's
// over copies of the pages fed so far: no batch the auditor keeps
// changed under the writer.
func TestFeedTracerPagesWhileRecording(t *testing.T) {
	src, _ := backToBackEvents(t, 30)
	tr := obs.NewTracer(obs.TracerOptions{Cap: 64})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, e := range src {
			if e.Dur != 0 {
				tr.Span(e.Name, e.VT, e.VT+e.Dur, e.Attrs...)
			} else {
				tr.Point(e.VT, e.Name, e.Attrs...)
			}
		}
	}()
	a := New()
	var fed []obs.Event
	var cursor uint64
	check := func() {
		ps := tr.PageStats(cursor, 0)
		cursor = ps.Next
		a.Feed(ps.Events...)
		for _, e := range ps.Events {
			e.Attrs = slices.Clone(e.Attrs)
			fed = append(fed, e)
		}
		fresh := New()
		fresh.Feed(slices.Clone(fed)...)
		if got, want := a.Report(), fresh.Report(); !reflect.DeepEqual(got, want) {
			t.Fatalf("after %d events fed, the report differs from a fresh auditor's:\n%s\nvs\n%s", len(fed), got, want)
		}
	}
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
			check()
		}
	}
	check()
	if cursor != uint64(len(src)) {
		t.Fatalf("paged up to seq %d of %d", cursor, len(src))
	}
}
