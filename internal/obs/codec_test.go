package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// TestCodecRoundTripByteIdentity pins the single-serializer contract:
// decode(encode(e)) == e, and re-encoding the decoded event reproduces
// the original bytes exactly, for every event shape the stack emits
// (point events, wall-stamped events, span carriers, empty attrs).
func TestCodecRoundTripByteIdentity(t *testing.T) {
	events := []Event{
		{Seq: 1, VT: 0, Name: "boot"},
		{Seq: 2, VT: 42, Name: "emu.rate", Attrs: []Attr{{K: "link", V: "R1>R2"}, {K: "rate", V: "7"}}},
		{Seq: 3, VT: 100, Wall: 1700000000123456789, Name: "ctl.flowmod", Attrs: []Attr{{K: "switch", V: "R3"}}},
		{Seq: 4, VT: 50, Dur: 25, Name: SpanEventName, Attrs: []Attr{
			{K: "span", V: "3"}, {K: "parent", V: "1"}, {K: "op", V: "solve"}, {K: "scheme", V: "chronus"}}},
		{Seq: 5, VT: -7, Name: "weird\"chars\n", Attrs: []Attr{{K: "k", V: `va"l`}}},
	}
	for _, e := range events {
		line, err := EncodeJSONLine(nil, e)
		if err != nil {
			t.Fatalf("encode %+v: %v", e, err)
		}
		if !bytes.HasSuffix(line, []byte("\n")) {
			t.Fatalf("encoded line not newline-terminated: %q", line)
		}
		got, err := DecodeJSONLine(bytes.TrimSuffix(line, []byte("\n")))
		if err != nil {
			t.Fatalf("decode %q: %v", line, err)
		}
		again, err := EncodeJSONLine(nil, got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(line, again) {
			t.Fatalf("re-encode drifted:\n first %q\nsecond %q", line, again)
		}
	}
}

// TestCodecMatchesWriteJSONL: the tracer's own export is the codec,
// line for line — no second encoder behind WriteJSONL.
func TestCodecMatchesWriteJSONL(t *testing.T) {
	tr := NewTracer(TracerOptions{})
	tr.Point(1, "a", A("x", 1))
	tr.Span("b", 2, 9, A("y", "z"))
	var w strings.Builder
	if err := tr.WriteJSONL(&w, 0); err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, e := range tr.Events(0) {
		var err error
		want, err = EncodeJSONLine(want, e)
		if err != nil {
			t.Fatal(err)
		}
	}
	if w.String() != string(want) {
		t.Fatalf("WriteJSONL diverged from codec:\n%q\n%q", w.String(), want)
	}
}

// countingWriter records how many Write calls it took and the bytes.
type countingWriter struct {
	writes int
	buf    bytes.Buffer
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.buf.Write(p)
}

// TestWriteJSONLWritesInChunks: WriteJSONL hands its writer whole lines
// in chunks of about 64 KiB, not one Write per event, and the bytes are
// the codec's, line for line.
func TestWriteJSONLWritesInChunks(t *testing.T) {
	tr := NewTracer(TracerOptions{})
	const n = 5000
	for i := 0; i < n; i++ {
		tr.Point(int64(i), "emu.rate", A("link", "v1>v2"), A("rate", i))
	}
	var w countingWriter
	if err := tr.WriteJSONL(&w, 0); err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, e := range tr.Events(0) {
		want, _ = EncodeJSONLine(want, e)
	}
	if !bytes.Equal(w.buf.Bytes(), want) {
		t.Fatal("chunked WriteJSONL diverged from the codec")
	}
	if limit := len(want)/writeChunk + 1; w.writes > limit {
		t.Fatalf("%d events in %d writes, want at most %d", n, w.writes, limit)
	}
	// Nothing retained past the cursor: no write at all.
	w = countingWriter{}
	if err := tr.WriteJSONL(&w, n); err != nil || w.writes != 0 {
		t.Fatalf("empty export: %d writes, err %v", w.writes, err)
	}
}

// TestCanonicalFastPathScope pins which lines the fast path takes: the
// shape EncodeJSONLine writes, and nothing encoding/json might read
// differently. FuzzDecodeJSONLine checks that what it takes is right.
func TestCanonicalFastPathScope(t *testing.T) {
	for _, c := range []struct {
		line  string
		taken bool
	}{
		{`{"seq":1,"vt":0,"name":"a"}`, true},
		{`{"seq":7,"vt":-40,"wall":5,"name":"emu.rate","dur":2,"attrs":[{"k":"link","v":"R1>R2"}]}`, true},
		{`{"seq":3,"vt":0,"name":"boot","attrs":[]}`, true},
		{`{"seq":18446744073709551615,"vt":-9223372036854775808,"name":"a"}` + " \r\n", true},
		{`{"seq":3,"vt":0,"name":"boot","attrs":null}`, false},
		{`{"seq":1,"vt":-0,"name":"a"}`, false},
		{`{"seq":1e3,"vt":0,"name":"a"}`, false},
		{`{"seq":01,"vt":0,"name":"a"}`, false},
		{`{"seq":18446744073709551616,"vt":0,"name":"a"}`, false},
		{`{"seq":1,"vt":9223372036854775808,"name":"a"}`, false},
		{`{"seq":1,"vt":0,"name":"\ud800"}`, false},
		{"{\"seq\":1,\"vt\":0,\"name\":\"a\xffb\"}", false},
		{`{"vt":0,"seq":1,"name":"a"}`, false},
		{`{"seq":1,"vt":0,"name":"a","name":"b"}`, false},
		{`{"seq": 1,"vt":0,"name":"a"}`, false},
		{` {"seq":1,"vt":0,"name":"a"}`, false},
		{`{"seq":1,"vt":0,"name":"a"}x`, false},
	} {
		d := decoder{intern: new(internCache)}
		if _, taken := d.canonical([]byte(c.line)); taken != c.taken {
			t.Errorf("fast path taken = %v on %q, want %v", taken, c.line, c.taken)
		}
	}
}

// TestReadJSONLConcurrentReaders: readers share nothing (the intern table
// is per call), so concurrent reads of one stream all see every event —
// the /watch backfill beside the boot prefeed. Run it under -race.
func TestReadJSONLConcurrentReaders(t *testing.T) {
	tr := NewTracer(TracerOptions{})
	for i := 0; i < 200; i++ {
		tr.Point(int64(i), EvEmuRate, A(KeyLink, "R1>R2"), A(KeyKey, "f/0"), A(KeyRate, i))
	}
	var stream strings.Builder
	if err := tr.WriteJSONL(&stream, 0); err != nil {
		t.Fatal(err)
	}
	want := tr.Events(0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var got []Event
			if _, err := ReadJSONL(strings.NewReader(stream.String()), false, func(e Event) error {
				got = append(got, e)
				return nil
			}); err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("concurrent reader decoded %d events differently from the %d traced", len(got), len(want))
			}
		}()
	}
	wg.Wait()
}

func TestDecodeJSONLineRejectsGarbage(t *testing.T) {
	if _, err := DecodeJSONLine([]byte(`{"seq": 1,`)); err == nil {
		t.Fatal("torn line decoded without error")
	}
}

// TestTracerSinkSeesEveryEvent: the sink receives each event exactly
// once in sequence order, including events the ring later evicts.
func TestTracerSinkSeesEveryEvent(t *testing.T) {
	var got []Event
	tr := NewTracer(TracerOptions{Cap: 4, Sink: sinkFunc(func(e Event) { got = append(got, e) })})
	const n = 20
	for i := 0; i < n; i++ {
		tr.Point(int64(i), "ev")
	}
	if len(got) != n {
		t.Fatalf("sink saw %d events, want %d", len(got), n)
	}
	for i, e := range got {
		if e.Seq != uint64(i+1) {
			t.Fatalf("sink event %d has seq %d", i, e.Seq)
		}
	}
	if tr.Dropped() != n-4 {
		t.Fatalf("ring dropped %d, want %d", tr.Dropped(), n-4)
	}
}

type sinkFunc func(Event)

func (f sinkFunc) Record(e Event) { f(e) }

// readStream decodes stream through ReadJSONL, strictly.
func readStream(t *testing.T, stream []byte) []Event {
	t.Helper()
	var evs []Event
	if _, err := ReadJSONL(bytes.NewReader(stream), false, func(e Event) error {
		evs = append(evs, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return evs
}

// encodeStream encodes evs as one JSONL stream.
func encodeStream(evs []Event) []byte {
	var stream []byte
	for _, e := range evs {
		stream, _ = EncodeJSONLine(stream, e)
	}
	return stream
}

// TestDecodedEventsDoNotAlias: the events of one read share attribute
// blocks, each event's Attrs a window capped at its own length, so
// writing to an event's attributes or appending to them leaves every
// other event as it was. Every event is tried, so the last event of
// each block is too (the test checks the stream crosses several).
func TestDecodedEventsDoNotAlias(t *testing.T) {
	var src []Event
	for i := 0; i < 2000; i++ {
		e := Event{Seq: uint64(i + 1), VT: int64(i), Name: "emu.rate"}
		for k := 0; k < i%7; k++ { // 0 to 6 attributes: blocks end part-filled
			e.Attrs = append(e.Attrs, Attr{K: "k" + strconv.Itoa(k), V: strconv.Itoa(i)})
		}
		src = append(src, e)
	}
	stream := encodeStream(src)
	evs, want := readStream(t, stream), readStream(t, stream)
	size := unsafe.Sizeof(Attr{})
	boundaries := 0
	for i := 1; i+1 < len(evs); i++ {
		a := evs[i].Attrs
		if len(a) == 0 {
			continue
		}
		if cap(a) != len(a) {
			t.Fatalf("event %d: Attrs has cap %d beyond its %d attributes", i, cap(a), len(a))
		}
		if next := evs[i+1].Attrs; len(next) > 0 &&
			uintptr(unsafe.Pointer(&next[0])) != uintptr(unsafe.Pointer(&a[0]))+uintptr(len(a))*size {
			boundaries++
		}
		a[0].V = "overwritten"
		_ = append(a, Attr{K: "extra", V: "appended"})
		for _, j := range []int{i - 1, i + 1} {
			if !reflect.DeepEqual(evs[j], want[j]) {
				t.Fatalf("changing event %d changed event %d:\n got %+v\nwant %+v", i, j, evs[j], want[j])
			}
		}
		a[0].V = want[i].Attrs[0].V
	}
	if boundaries < 3 {
		t.Fatalf("stream crossed %d attribute blocks, want several", boundaries)
	}
}

// internSlot is the cache slot str picks for a plain ASCII string.
func internSlot(s string) uint32 {
	h := uint32(fnvOffset)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * fnvPrime
	}
	return h % internSlots
}

// collidingStream is a stream of over 10k distinct strings of up to 33
// bytes, 500 of which share one intern slot and keep evicting each
// other, each line repeating a few of them.
func collidingStream() []byte {
	var colliding []string
	for i := 0; len(colliding) < 500; i++ {
		if s := "c" + strconv.Itoa(i); internSlot(s) == 0 {
			colliding = append(colliding, s)
		}
	}
	var evs []Event
	for i := 0; i < 12000; i++ {
		distinct := strconv.Itoa(i)
		c := colliding[i%len(colliding)]
		evs = append(evs, Event{Seq: uint64(i + 1), VT: int64(i), Name: c, Attrs: []Attr{
			{K: distinct, V: colliding[(i*7)%len(colliding)]},
			{K: c, V: strings.Repeat("x", 32-len(distinct)) + distinct},
			{K: "long", V: strings.Repeat("y", 33-len(distinct)) + distinct},
		}})
	}
	return encodeStream(evs)
}

// TestInternCollisions: on a stream whose strings collide in the intern
// cache, every line decodes exactly as json.Unmarshal decodes it.
func TestInternCollisions(t *testing.T) {
	stream := collidingStream()
	evs := readStream(t, stream)
	lines := bytes.Split(bytes.TrimSuffix(stream, []byte("\n")), []byte("\n"))
	if len(evs) != len(lines) {
		t.Fatalf("decoded %d events from %d lines", len(evs), len(lines))
	}
	for i, line := range lines {
		var want Event
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(evs[i], want) {
			t.Fatalf("line %d decodes differently from json.Unmarshal:\n got %+v\nwant %+v", i+1, evs[i], want)
		}
	}
}

// TestReadJSONLAllocsRepeat: interning is deterministic — no seed drawn
// per read — so two reads of one stream allocate exactly alike. The
// collector is off while they run: a cycle starting mid-read allocates
// a few objects of its own. AllocsPerRun also counts what the runtime
// allocates on other goroutines meanwhile, which only ever adds, so each
// side is the minimum of five measurements; the sides must still be
// equal.
func TestReadJSONLAllocsRepeat(t *testing.T) {
	stream := collidingStream()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	read := func() {
		if _, err := ReadJSONL(bytes.NewReader(stream), false, func(Event) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	least := func() float64 {
		m := testing.AllocsPerRun(1, read)
		for range 4 {
			m = min(m, testing.AllocsPerRun(1, read))
		}
		return m
	}
	if first, second := least(), least(); first != second {
		t.Fatalf("two reads of one stream made %v and %v allocations", first, second)
	}
}
