package graph

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzGraphJSON: UnmarshalJSON never panics on instance JSON from outside,
// and on every document it accepts Marshal∘Unmarshal is a fixed point —
// the re-encoded bytes decode to a graph of the same size that encodes to
// the same bytes. The checked-in corpus is under testdata/fuzz.
func FuzzGraphJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var g Graph
		if err := json.Unmarshal(data, &g); err != nil {
			return
		}
		enc, err := json.Marshal(&g)
		if err != nil {
			t.Fatalf("accepted %q but cannot encode %v: %v", data, &g, err)
		}
		var back Graph
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("canonical document %q does not decode: %v", enc, err)
		}
		if back.NumNodes() != g.NumNodes() || back.NumLinks() != g.NumLinks() {
			t.Fatalf("round trip changed the size: %v, then %v", &g, &back)
		}
		if again, _ := json.Marshal(&back); !bytes.Equal(again, enc) {
			t.Fatalf("canonical encoding is not a fixed point:\n first %q\nsecond %q", enc, again)
		}
	})
}
