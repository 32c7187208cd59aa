package graph

import (
	"encoding/json"
	"fmt"
)

// jsonGraph is the wire form of a Graph used by MarshalJSON/UnmarshalJSON.
// Links reference nodes by name so files remain readable and stable under
// node-ID reassignment.
type jsonGraph struct {
	Nodes []string   `json:"nodes"`
	Links []jsonLink `json:"links"`
}

type jsonLink struct {
	From  string   `json:"from"`
	To    string   `json:"to"`
	Cap   Capacity `json:"capacity"`
	Delay Delay    `json:"delay"`
}

// MarshalJSON encodes the graph with node names and per-link capacity/delay.
func (g *Graph) MarshalJSON() ([]byte, error) {
	jg := jsonGraph{Nodes: append([]string(nil), g.names...)}
	for _, l := range g.Links() {
		jg.Links = append(jg.Links, jsonLink{
			From:  g.Name(l.From),
			To:    g.Name(l.To),
			Cap:   l.Cap,
			Delay: l.Delay,
		})
	}
	return json.Marshal(jg)
}

// UnmarshalJSON decodes a graph previously encoded by MarshalJSON.
func (g *Graph) UnmarshalJSON(data []byte) error {
	var jg jsonGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return fmt.Errorf("graph: decode: %w", err)
	}
	*g = *New()
	for _, n := range jg.Nodes {
		g.AddNode(n)
	}
	for _, l := range jg.Links {
		from := g.Lookup(l.From)
		to := g.Lookup(l.To)
		if from == Invalid || to == Invalid {
			return fmt.Errorf("graph: link %s->%s references unknown node", l.From, l.To)
		}
		if err := g.AddLink(from, to, l.Cap, l.Delay); err != nil {
			return err
		}
	}
	return nil
}

// PathByNames resolves a path given node names; it fails fast on unknown
// names but does not validate connectivity (call Path.Validate).
func (g *Graph) PathByNames(names ...string) (Path, error) {
	p := make(Path, len(names))
	for i, n := range names {
		id := g.Lookup(n)
		if id == Invalid {
			return nil, fmt.Errorf("%w: %q", ErrUnknownNode, n)
		}
		p[i] = id
	}
	return p, nil
}
