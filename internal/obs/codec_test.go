package obs

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"
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
		d := decoder{intern: make(map[string]string)}
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
