package ofp

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzOfpDecode holds the decoder to two contracts on arbitrary bytes:
// it never panics, and every message it accepts survives a round trip —
// decoding its encoding gives the same message back. The checked-in
// corpus under testdata/fuzz holds one encoded message of each type.
func FuzzOfpDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		enc := Encode(m)
		back, err := Decode(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("decoded %#v from %x, but its encoding %x does not decode: %v", m, data, enc, err)
		}
		if !reflect.DeepEqual(back, m) {
			t.Fatalf("round trip changed the message:\n was %#v\n now %#v", m, back)
		}
	})
}
