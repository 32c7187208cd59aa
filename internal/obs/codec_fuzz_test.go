package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzDecodeJSONLine holds the fast path to encoding/json: on any line it
// either declines or returns exactly what json.Unmarshal returns, and it
// never declines a canonical line. Beyond that, decode∘encode is the
// identity on every line the codec accepts — the decoded event survives
// a round trip through the canonical encoding, and the canonical bytes
// are a fixed point. The checked-in corpus is under testdata/fuzz.
func FuzzDecodeJSONLine(f *testing.F) {
	f.Fuzz(func(t *testing.T, line []byte) {
		var want Event
		jsonErr := json.Unmarshal(line, &want)
		d := decoder{intern: new(internCache)}
		if fast, ok := d.canonical(line); ok {
			if jsonErr != nil {
				t.Fatalf("fast path accepted %q, json.Unmarshal fails: %v", line, jsonErr)
			}
			if !reflect.DeepEqual(fast, want) {
				t.Fatalf("fast path disagrees with json.Unmarshal on %q:\n fast %#v\n json %#v", line, fast, want)
			}
		}
		e, err := DecodeJSONLine(line)
		if (err == nil) != (jsonErr == nil) {
			t.Fatalf("DecodeJSONLine err = %v, json.Unmarshal err = %v", err, jsonErr)
		}
		if err != nil {
			return
		}
		enc, err := EncodeJSONLine(nil, e)
		if err != nil {
			t.Fatalf("accepted %q but cannot encode %+v: %v", line, e, err)
		}
		if _, ok := d.canonical(enc); !ok {
			t.Fatalf("fast path declined the canonical line %q", enc)
		}
		back, err := DecodeJSONLine(enc)
		if err != nil {
			t.Fatalf("canonical line %q does not decode: %v", enc, err)
		}
		if len(e.Attrs) == 0 {
			e.Attrs = nil // "attrs":[] and no attrs are the same event
		}
		if !reflect.DeepEqual(back, e) {
			t.Fatalf("round trip changed the event:\n was %+v\n now %+v", e, back)
		}
		if again, _ := EncodeJSONLine(nil, back); !bytes.Equal(again, enc) {
			t.Fatalf("canonical encoding is not a fixed point:\n first %q\nsecond %q", enc, again)
		}
	})
}

// FuzzReadJSONL holds the line reader to an oracle that splits the input
// on newlines itself: events come out in order up to the first bad line;
// a bad line that IS newline-terminated fails both modes with its line
// number (tolerant mode never drops one silently); a bad unterminated
// tail fails strict mode and is reported, not dropped, in tolerant mode.
func FuzzReadJSONL(f *testing.F) {
	// The one seed too long to check in as a file: a valid line beyond
	// the reader's 64 KiB buffer, followed by a torn one.
	f.Add([]byte(`{"seq":1,"vt":1,"name":"big","attrs":[{"k":"pad","v":"` + strings.Repeat("x", 70<<10) + `"}]}` + "\n" + `{"seq":2,"vt`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var want []Event
		badLine, tornLine := 0, 0
		lines := bytes.Split(data, []byte("\n"))
		for i, ln := range lines {
			text := strings.TrimSpace(string(ln))
			if text == "" {
				continue
			}
			e, err := DecodeJSONLine([]byte(text))
			if err == nil {
				want = append(want, e)
			} else if i < len(lines)-1 {
				badLine = i + 1
				break
			} else {
				tornLine = i + 1
			}
		}
		for _, tolerant := range []bool{false, true} {
			var got []Event
			torn, err := ReadJSONL(bytes.NewReader(data), tolerant, func(e Event) error {
				got = append(got, e)
				return nil
			})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("tolerant=%v: %d events, oracle has %d", tolerant, len(got), len(want))
			}
			failAt, wantTorn := badLine, 0
			if badLine == 0 && tolerant {
				wantTorn = tornLine
			} else if badLine == 0 {
				failAt = tornLine
			}
			switch {
			case failAt > 0 && (err == nil || !strings.HasPrefix(err.Error(), fmt.Sprintf("line %d: ", failAt))):
				t.Fatalf("tolerant=%v: err = %v, want a line-%d error", tolerant, err, failAt)
			case failAt == 0 && err != nil:
				t.Fatalf("tolerant=%v: unexpected error %v", tolerant, err)
			}
			if wantTorn > 0 != (torn != "") || (wantTorn > 0 &&
				!strings.HasPrefix(torn, fmt.Sprintf("line %d: ignoring torn trailing line: ", wantTorn))) {
				t.Fatalf("tolerant=%v: torn = %q, oracle's torn line is %d", tolerant, torn, wantTorn)
			}
		}
	})
}

// FuzzEncodeJSONLine holds the encoder to encoding/json: for every event
// — arbitrary strings, integers and attribute lists, nil and empty attrs
// alike — EncodeJSONLine writes exactly json.Marshal(e) plus '\n'. When
// every string is valid UTF-8 (the encoder replaces invalid bytes, so
// only then can the event survive), decoding the line gives the event
// back. attrs packs the attribute list as NUL-separated k, v, k, v, …;
// shape%3 picks nil (0), empty (1) or that list (2). The checked-in
// corpus is under testdata/fuzz.
func FuzzEncodeJSONLine(f *testing.F) {
	f.Fuzz(func(t *testing.T, seq uint64, vt, wall, dur int64, name, attrs string, shape uint8) {
		e := Event{Seq: seq, VT: vt, Wall: wall, Name: name, Dur: dur}
		switch shape % 3 {
		case 1:
			e.Attrs = []Attr{}
		case 2:
			kv := strings.Split(attrs, "\x00")
			for i := 0; i < len(kv); i += 2 {
				a := Attr{K: kv[i]}
				if i+1 < len(kv) {
					a.V = kv[i+1]
				}
				e.Attrs = append(e.Attrs, a)
			}
		}
		want, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		got, err := EncodeJSONLine([]byte("prefix"), e)
		if err != nil {
			t.Fatalf("encode %+v: %v", e, err)
		}
		if string(got) != "prefix"+string(want)+"\n" {
			t.Fatalf("EncodeJSONLine disagrees with json.Marshal on %+v:\n got %q\nwant %q", e, got[len("prefix"):], append(want, '\n'))
		}
		valid := utf8.ValidString(name)
		for _, a := range e.Attrs {
			valid = valid && utf8.ValidString(a.K) && utf8.ValidString(a.V)
		}
		if !valid {
			return
		}
		back, err := DecodeJSONLine(got[len("prefix"):])
		if err != nil {
			t.Fatalf("encoded %q does not decode: %v", got, err)
		}
		if len(e.Attrs) == 0 {
			e.Attrs = nil // "attrs" is omitted for both
		}
		if !reflect.DeepEqual(back, e) {
			t.Fatalf("decode∘encode changed the event:\n was %+v\n now %+v", e, back)
		}
	})
}
