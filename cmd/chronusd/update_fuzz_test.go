package main

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	chronus "github.com/chronus-sdn/chronus"
	"github.com/chronus-sdn/chronus/internal/admit"
	"github.com/chronus-sdn/chronus/internal/graph"
	"github.com/chronus-sdn/chronus/internal/obs"
)

// FuzzUpdateRequest feeds POST /update bodies through the request side of
// the handler: decode into updateRequest, translate with admitRequest, and
// validate as the admission engine does on Submit (on a fresh engine over
// the daemon's graph, so nothing queues on the server's own). Nothing may
// panic, every body that validates names only switches of the topology
// (a plan-only update's paths are its names resolved in order), and an
// execute update it accepts names tp or a registered scheme.
func FuzzUpdateRequest(f *testing.F) {
	for _, body := range []string{
		`{}`,
		`{"method": "chronus", "async": true}`,
		`{"method": "chronos"}`,
		`{"method": "TP"}`,
		planOnlyBody("f1"),
		`{"flow": "f", "demand": 1, "init": ["R1", "R10"], "fin": ["R1", "R2", "R10"]}`,
		`{"flow": "f", "demand": -5, "init": ["R1"], "fin": []}`,
		`{"flow": "f", "demand": 100, "init": ["R1", "nope"], "fin": ["R1", "R10"]}`,
		`{"flow": "f", "demand": 100, "init": ["R1", "R2", "R1", "R10"], "fin": ["R1", "R10"]}`,
		`{"flow": "f", "demand": 100, "init": ["R10", "R2", "R1"], "fin": ["R1", "R10"]}`,
		`{"method": "ORDER", "priority": -3, "tenant": ""}`,
		`{"flow": "f", "init": null, "fin": [""]}`,
		`[1, 2]`,
	} {
		f.Add([]byte(body))
	}
	srv, err := newServer(serverOptions{Seed: 1, Virtual: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.Close)
	g := srv.in.G
	execute := func(*admit.Update) (obs.SpanID, error) { return 0, nil }
	f.Fuzz(func(t *testing.T, body []byte) {
		var req updateRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			return
		}
		areq, err := srv.admitRequest(&req)
		if err != nil {
			return
		}
		if _, err := admit.New(g, admit.Options{Execute: execute}).Submit(areq); err != nil {
			return
		}
		if areq.Execute && areq.Method != "tp" && !slices.Contains(chronus.Schemes(), areq.Method) {
			t.Fatalf("body %q: execute update accepted with method %q, neither tp nor a scheme", body, areq.Method)
		}
		for _, p := range []graph.Path{areq.Init, areq.Fin} {
			for _, v := range p {
				if !g.HasNode(v) {
					t.Fatalf("body %q validated with node %d outside the topology", body, v)
				}
			}
		}
		if req.Flow == "" {
			return
		}
		for _, c := range []struct {
			names []string
			p     graph.Path
		}{{req.Init, areq.Init}, {req.Fin, areq.Fin}} {
			if len(c.names) != len(c.p) {
				t.Fatalf("body %q: %d names became a %d-node path", body, len(c.names), len(c.p))
			}
			for i, name := range c.names {
				if g.Lookup(name) != c.p[i] {
					t.Fatalf("body %q: name %q became node %d", body, name, c.p[i])
				}
			}
		}
	})
}
