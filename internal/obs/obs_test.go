package obs

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("x_total") != c {
		t.Fatal("Counter lookup is not idempotent")
	}
	g := r.Gauge("depth")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 5, 5, math.Inf(1), 10})
	for _, v := range []float64{0.5, 1, 2, 7, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 110.5 {
		t.Fatalf("sum = %g, want 110.5", h.Sum())
	}
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`lat_bucket{le="1"} 2`,
		`lat_bucket{le="5"} 3`,
		`lat_bucket{le="10"} 4`,
		`lat_bucket{le="+Inf"} 5`,
		`lat_sum 110.5`,
		`lat_count 5`,
		`# TYPE lat histogram`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestLabeledSeriesShareOneFamily(t *testing.T) {
	r := NewRegistry()
	r.Help("msgs_total", "messages by direction")
	r.Counter(`msgs_total{dir="tx"}`).Add(2)
	r.Counter(`msgs_total{dir="rx"}`).Add(3)
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if n := strings.Count(out, "# TYPE msgs_total counter"); n != 1 {
		t.Fatalf("want exactly one TYPE line, got %d:\n%s", n, out)
	}
	if !strings.Contains(out, "# HELP msgs_total messages by direction") {
		t.Errorf("missing HELP line:\n%s", out)
	}
	if !strings.Contains(out, `msgs_total{dir="rx"} 3`) || !strings.Contains(out, `msgs_total{dir="tx"} 2`) {
		t.Errorf("missing labeled series:\n%s", out)
	}
}

func TestLabeledHistogramMergesLeLabel(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(`rtt{peer="a"}`, []float64{1})
	h.Observe(0.5)
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`rtt_bucket{peer="a",le="1"} 1`,
		`rtt_bucket{peer="a",le="+Inf"} 1`,
		`rtt_sum{peer="a"} 0.5`,
		`rtt_count{peer="a"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// expositionLine matches the sample/comment lines of the text format.
var expositionLine = regexp.MustCompile(`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.e+-]+|\+?Inf)$`)

func TestExpositionFormatValidity(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Inc()
	r.Gauge("b").Set(-2)
	r.Histogram("c", []float64{1, 2}).Observe(1.5)
	r.Help("a_total", "a help")
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) == 0 {
		t.Fatal("empty exposition")
	}
	for _, line := range lines {
		if !expositionLine.MatchString(line) {
			t.Errorf("malformed exposition line %q", line)
		}
	}
	// Families must be sorted.
	var fams []string
	for _, line := range lines {
		if strings.HasPrefix(line, "# TYPE ") {
			fams = append(fams, strings.Fields(line)[2])
		}
	}
	for i := 1; i < len(fams); i++ {
		if fams[i] < fams[i-1] {
			t.Errorf("families out of order: %v", fams)
		}
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Help("x", "y")
	c := r.Counter("x")
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Fatal("nil counter must read 0")
	}
	g := r.Gauge("g")
	g.Set(1)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge must read 0")
	}
	h := r.Histogram("h", []float64{1})
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram must read 0")
	}
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}

	var tr *Tracer
	tr.Point(1, "x")
	tr.Span("y", 1, 2)
	if tr.Events(0) != nil || tr.Dropped() != 0 {
		t.Fatal("nil tracer must be empty")
	}
	if err := tr.WriteJSONL(&bytes.Buffer{}, 0); err != nil {
		t.Fatal(err)
	}
}

func TestTracerEventsAndSince(t *testing.T) {
	tr := NewTracer(TracerOptions{})
	tr.Point(10, "a", A("k", "v"), A("n", 42))
	tr.Span("b", 20, 35)
	evs := tr.Events(0)
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].Seq != 1 || evs[0].VT != 10 || evs[0].Name != "a" {
		t.Fatalf("bad first event %+v", evs[0])
	}
	if evs[0].Attrs[1] != (Attr{K: "n", V: "42"}) {
		t.Fatalf("bad attr %+v", evs[0].Attrs[1])
	}
	if evs[1].Dur != 15 {
		t.Fatalf("span dur = %d, want 15", evs[1].Dur)
	}
	if evs[0].Wall != 0 {
		t.Fatal("deterministic tracer must not stamp wall time")
	}
	since := tr.Events(1)
	if len(since) != 1 || since[0].Name != "b" {
		t.Fatalf("since filter broken: %+v", since)
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(TracerOptions{Cap: 4})
	for i := 0; i < 10; i++ {
		tr.Point(int64(i), fmt.Sprintf("e%d", i))
	}
	evs := tr.Events(0)
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	if evs[0].Seq != 7 || evs[3].Seq != 10 {
		t.Fatalf("wrong window: %+v", evs)
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", tr.Dropped())
	}
}

func TestTracerJSONLDeterministic(t *testing.T) {
	render := func() string {
		tr := NewTracer(TracerOptions{})
		tr.Point(1, "x", A("a", 1), A("b", "s"))
		tr.Span("y", 2, 9, A("c", 3.5))
		var b bytes.Buffer
		if err := tr.WriteJSONL(&b, 0); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	one, two := render(), render()
	if one != two {
		t.Fatalf("JSONL not deterministic:\n%s\n---\n%s", one, two)
	}
	if !strings.Contains(one, `"name":"x"`) || !strings.Contains(one, `"dur":7`) {
		t.Fatalf("unexpected JSONL:\n%s", one)
	}
}

func TestTracerWallMode(t *testing.T) {
	now := int64(1000)
	tr := NewTracer(TracerOptions{Wall: func() int64 { now++; return now }})
	tr.Point(1, "x")
	tr.Point(2, "y")
	evs := tr.Events(0)
	if evs[0].Wall != 1001 || evs[1].Wall != 1002 {
		t.Fatalf("wall stamps wrong: %+v", evs)
	}
}

func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer(TracerOptions{Cap: 128})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("c_total").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h", []float64{10, 100}).Observe(float64(i))
				tr.Point(int64(i), "e")
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("c_total").Value(); got != 4000 {
		t.Fatalf("counter = %d, want 4000", got)
	}
	if got := r.Histogram("h", nil).Count(); got != 4000 {
		t.Fatalf("hist count = %d, want 4000", got)
	}
	if got := r.Histogram("h", nil).Sum(); got != 8*float64(499*500/2) {
		t.Fatalf("hist sum = %g", got)
	}
	if len(tr.Events(0)) != 128 {
		t.Fatalf("ring should be full")
	}
}

func TestTracerDropsCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("chronus_trace_dropped_events_total")
	tr := NewTracer(TracerOptions{Cap: 4, Drops: c})
	for i := 0; i < 10; i++ {
		tr.Point(int64(i), "e")
	}
	if got := c.Value(); got != 6 {
		t.Fatalf("drops counter = %d, want 6", got)
	}
	if tr.Dropped() != 6 {
		t.Fatalf("Dropped() = %d, want 6", tr.Dropped())
	}
}

// page is one PageStats read, unpacked the way paging clients use it.
func page(tr *Tracer, since uint64, limit int) ([]Event, uint64) {
	ps := tr.PageStats(since, limit)
	return ps.Events, ps.Next
}

func TestTracerPage(t *testing.T) {
	tr := NewTracer(TracerOptions{Cap: 16})
	for i := 0; i < 10; i++ {
		tr.Point(int64(i), fmt.Sprintf("e%d", i))
	}
	page1, next := page(tr, 0, 4)
	if len(page1) != 4 || page1[0].Seq != 1 || next != 4 {
		t.Fatalf("page1 = %+v next = %d", page1, next)
	}
	page2, next := page(tr, next, 4)
	if len(page2) != 4 || page2[0].Seq != 5 || next != 8 {
		t.Fatalf("page2 = %+v next = %d", page2, next)
	}
	page3, next := page(tr, next, 4)
	if len(page3) != 2 || page3[1].Seq != 10 || next != 10 {
		t.Fatalf("page3 = %+v next = %d", page3, next)
	}
	// Exhausted: the cursor stays put and the page is empty.
	page4, next := page(tr, next, 4)
	if len(page4) != 0 || next != 10 {
		t.Fatalf("page4 = %+v next = %d", page4, next)
	}
	// limit <= 0 means everything.
	all, _ := page(tr, 0, 0)
	if len(all) != 10 {
		t.Fatalf("unbounded page = %d events, want 10", len(all))
	}
	// Nil tracer is a no-op.
	var nilTr *Tracer
	if evs, next := page(nilTr, 3, 5); evs != nil || next != 3 {
		t.Fatalf("nil tracer page = %v, %d", evs, next)
	}
}

// pageStatsScan is PageStats as a scan of every segment: the oracle for
// the read that starts at the cursor's offset.
func pageStatsScan(t *Tracer, since uint64, limit int) PageStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	ps := PageStats{Next: since, Dropped: t.dropped}
	if t.count > 0 {
		if oldest := t.seq - uint64(t.count) + 1; since+1 < oldest {
			ps.Skipped = oldest - since - 1
		}
	}
	out := make([]Event, 0, t.count)
scan:
	for _, seg := range t.segs {
		for _, e := range seg.ev {
			if e.Seq <= since {
				continue
			}
			out = append(out, e)
			if limit > 0 && len(out) == limit {
				break scan
			}
		}
	}
	ps.Events = out
	if len(out) > 0 {
		ps.Next = out[len(out)-1].Seq
	}
	return ps
}

// ringModel checks one PageStats read against the ring's contract for
// a tracer that was written events 1..written (event s at VT s-1 with
// attribute i = s-1) under a bound of ringCap: the last min(written,
// ringCap) events are retained, the rest evicted. It is independent of
// the ring's layout, so it holds across growth steps.
func ringModel(t *testing.T, got PageStats, written, ringCap int, since uint64, limit int) {
	t.Helper()
	seq := uint64(written)
	retained := uint64(min(written, ringCap))
	oldest := seq - retained + 1
	want := PageStats{Next: since, Dropped: seq - retained}
	if retained > 0 && since+1 < oldest {
		want.Skipped = oldest - since - 1
	}
	var from uint64
	if since >= oldest {
		from = since - oldest + 1
	}
	var n uint64
	if from < retained {
		n = retained - from
	}
	if limit > 0 && n > uint64(limit) {
		n = uint64(limit)
	}
	if n > 0 {
		want.Next = oldest + from + n - 1
	}
	if got.Next != want.Next || got.Skipped != want.Skipped || got.Dropped != want.Dropped || uint64(len(got.Events)) != n {
		t.Fatalf("cap %d, %d written, since %d, limit %d: got next %d skipped %d dropped %d with %d events, want %d %d %d with %d",
			ringCap, written, since, limit, got.Next, got.Skipped, got.Dropped, len(got.Events), want.Next, want.Skipped, want.Dropped, n)
	}
	for i, e := range got.Events {
		s := oldest + from + uint64(i)
		if e.Seq != s || e.VT != int64(s-1) || e.Name != "e" || len(e.Attrs) != 1 || e.AttrUint("i") != s-1 {
			t.Fatalf("cap %d, %d written, since %d, limit %d: event %d = %+v, want seq %d", ringCap, written, since, limit, i, e, s)
		}
	}
}

// TestTracerPageMatchesScan holds PageStats to the whole-storage scan
// and to ringModel at caps that straddle the storage's growth steps (the
// first segment starts at 256 slots and doubles up to S = min(cap,
// 4096); later segments hold S slots, or fewer where S more would pass
// cap + S): 1, 4, 7, 255, 256, 257, 1000, 4097, 10000 and the default.
// Events are written one at a time and the tracer is checked after the
// writes on either side of every doubling, of the cap, of eviction past
// it, and of the multiples of S near the start, where segments begin,
// and near the cap, where they are released. Each check reads with
// cursors below, inside and past the retained range and limits 0, 1, 2
// and the cap, so pages start, end and cross at segment boundaries.
func TestTracerPageMatchesScan(t *testing.T) {
	for _, optCap := range []int{1, 4, 7, 255, 256, 257, 1000, 4097, 10000, 0} {
		ringCap := optCap
		if ringCap == 0 {
			ringCap = defaultTracerCap
		}
		checkAt := map[int]bool{0: true}
		for _, n := range []int{ringCap, 2 * ringCap, 2*ringCap + 3} {
			checkAt[n-1], checkAt[n], checkAt[n+1] = true, true, true
		}
		for n := 1; n <= 2*ringCap; n *= 2 {
			checkAt[n-1], checkAt[n], checkAt[n+1] = true, true, true
		}
		for s, n := min(ringCap, maxSegment), min(ringCap, maxSegment); n <= 2*ringCap+3; n += s {
			if n <= 3*s || n >= ringCap-s && n <= ringCap+3*s {
				checkAt[n-1], checkAt[n], checkAt[n+1] = true, true, true
			}
		}
		if ringCap < 8 {
			for n := 0; n <= 30; n++ {
				checkAt[n] = true
			}
		}
		last := 0
		for n := range checkAt {
			last = max(last, n)
		}
		tr := NewTracer(TracerOptions{Cap: optCap})
		for written := 0; written <= last; written++ {
			if written > 0 {
				tr.Point(int64(written-1), "e", A("i", written-1))
			}
			if !checkAt[written] {
				continue
			}
			seq := uint64(written)
			oldest := seq - uint64(min(written, ringCap)) + 1
			sinces := []uint64{math.MaxUint64, 0, 1, oldest - 1, oldest, oldest + 1, (oldest + seq) / 2, seq - 1, seq, seq + 1, seq + 2}
			for _, since := range sinces {
				if since > seq+2 && since != math.MaxUint64 {
					continue // oldest-1 or seq-1 wrapped below zero
				}
				for _, limit := range []int{0, 1, 2, ringCap} {
					big := ringCap > 1000
					if big && (limit == ringCap || since != 0 && limit == 0) {
						continue // a big tracer is read whole once per check, from 0
					}
					got := tr.PageStats(since, limit)
					ringModel(t, got, written, ringCap, since, limit)
					if big {
						continue // the model has checked every event; the scan would only repeat it
					}
					if want := pageStatsScan(tr, since, limit); !reflect.DeepEqual(got, want) {
						t.Fatalf("cap %d, %d written, since %d, limit %d:\n got %+v\nwant %+v", ringCap, written, since, limit, got, want)
					}
				}
			}
		}
	}
}

// TestTracerConcurrentGrowth races writers that grow the ring to its
// cap and evict past it against a reader paging with PageStats (CI runs
// it under -race): every page is dense and starts where the cursor plus
// Skipped says, and the reader accounts for every sequence number
// exactly once.
func TestTracerConcurrentGrowth(t *testing.T) {
	const writers, perWriter, ringCap = 4, 600, 1000
	tr := NewTracer(TracerOptions{Cap: ringCap})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tr.Point(int64(i), "e")
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var since, seen, skipped uint64
	read := func(limit int) int {
		ps := tr.PageStats(since, limit)
		for i, e := range ps.Events {
			if want := since + ps.Skipped + uint64(i) + 1; e.Seq != want {
				t.Fatalf("page after cursor %d (skipped %d): event %d has seq %d, want %d", since, ps.Skipped, i, e.Seq, want)
			}
		}
		seen += uint64(len(ps.Events))
		skipped += ps.Skipped
		since = ps.Next
		return len(ps.Events)
	}
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
			read(97)
		}
	}
	for read(0) > 0 {
	}
	if total := uint64(writers * perWriter); seen+skipped != total || since != total {
		t.Fatalf("saw %d + skipped %d events up to seq %d, want %d", seen, skipped, since, total)
	}
	if got := tr.Dropped(); got != writers*perWriter-ringCap {
		t.Fatalf("Dropped() = %d, want %d", got, writers*perWriter-ringCap)
	}
}

// TestAFormatsLikeSprintf holds A's strconv fast path to the %v it
// replaces: every builtin integer kind at 0, ±1, its min and max, and bool.
func TestAFormatsLikeSprintf(t *testing.T) {
	vals := []any{
		int(0), int(1), int(-1), int(math.MinInt), int(math.MaxInt),
		int8(0), int8(1), int8(-1), int8(math.MinInt8), int8(math.MaxInt8),
		int16(0), int16(1), int16(-1), int16(math.MinInt16), int16(math.MaxInt16),
		int32(0), int32(1), int32(-1), int32(math.MinInt32), int32(math.MaxInt32),
		int64(0), int64(1), int64(-1), int64(math.MinInt64), int64(math.MaxInt64),
		uint(0), uint(1), uint(math.MaxUint),
		uint8(0), uint8(1), uint8(math.MaxUint8),
		uint16(0), uint16(1), uint16(math.MaxUint16),
		uint32(0), uint32(1), uint32(math.MaxUint32),
		uint64(0), uint64(1), uint64(math.MaxUint64),
		true, false,
	}
	for _, v := range vals {
		if got, want := A("k", v).V, fmt.Sprintf("%v", v); got != want {
			t.Errorf("A(%T %v) = %q, want %q", v, v, got, want)
		}
	}
}
