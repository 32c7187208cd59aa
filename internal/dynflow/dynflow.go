// Package dynflow implements the paper's dynamic-flow semantics: a single
// flow of fixed demand continuously emitted by a source switch, traversing a
// network whose per-switch forwarding rules flip from an initial to a final
// path at scheduled time points.
//
// The package provides the ground-truth validator for the congestion-free
// (Definition 3) and loop-free (Definition 2) conditions: it traces every
// emission tick through the time-varying configuration and accumulates load
// per time-extended link instance ⟨u(t), v(t+σ)⟩, exactly as in the paper's
// time-extended network model. Every scheduler in this repository is tested
// against this validator.
package dynflow

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"github.com/chronus-sdn/chronus/internal/graph"
	"github.com/chronus-sdn/chronus/internal/obs"
)

// Tick is a discrete time step of the timed SDN.
type Tick int64

// Instance is one MUTP instance: move a dynamic flow of demand Demand from
// the Init path to the Fin path in graph G. Both paths must share source and
// destination.
type Instance struct {
	G      *graph.Graph
	Demand graph.Capacity
	Init   graph.Path
	Fin    graph.Path

	// Obs, when set, receives validator telemetry (runs, traces walked,
	// window sizes, dense-vs-map load accounting); nil disables it. The
	// registry travels with the instance because Validate's signature is
	// fixed across every scheduler and test.
	Obs *obs.Registry

	// idx caches O(1) next-hop lookups; it is rebuilt whenever the paths
	// it was derived from change (see ensureIndex).
	idx *pathIndex
	// trc caches the validator's adjacency tables; rebuilt whenever the
	// graph changes (see tracerFor).
	trc *tracer
}

// pathIndex holds per-switch next hops as dense arrays for O(1) lookup on
// the scheduling hot paths. initLen/finLen and the head pointers detect
// staleness when a caller swaps the instance's paths.
type pathIndex struct {
	oldNext, newNext  []graph.NodeID
	initHead, finHead *graph.NodeID
	initLen, finLen   int
}

func (in *Instance) ensureIndex() *pathIndex {
	idx := in.idx
	if idx != nil && idx.initLen == len(in.Init) && idx.finLen == len(in.Fin) &&
		(idx.initLen == 0 || idx.initHead == &in.Init[0]) &&
		(idx.finLen == 0 || idx.finHead == &in.Fin[0]) {
		return idx
	}
	n := in.G.NumNodes()
	idx = &pathIndex{
		oldNext: make([]graph.NodeID, n),
		newNext: make([]graph.NodeID, n),
		initLen: len(in.Init),
		finLen:  len(in.Fin),
	}
	if idx.initLen > 0 {
		idx.initHead = &in.Init[0]
	}
	if idx.finLen > 0 {
		idx.finHead = &in.Fin[0]
	}
	for i := range idx.oldNext {
		idx.oldNext[i] = graph.Invalid
		idx.newNext[i] = graph.Invalid
	}
	for i := 0; i+1 < len(in.Init); i++ {
		if v := in.Init[i]; v >= 0 && int(v) < n {
			idx.oldNext[v] = in.Init[i+1]
		}
	}
	for i := 0; i+1 < len(in.Fin); i++ {
		if v := in.Fin[i]; v >= 0 && int(v) < n {
			idx.newNext[v] = in.Fin[i+1]
		}
	}
	in.idx = idx
	return idx
}

// Validate checks structural well-formedness of the instance.
func (in *Instance) Validate() error {
	if in.G == nil {
		return errors.New("dynflow: nil graph")
	}
	if in.Demand <= 0 {
		return fmt.Errorf("dynflow: non-positive demand %d", in.Demand)
	}
	if err := in.Init.Validate(in.G); err != nil {
		return fmt.Errorf("dynflow: initial path: %w", err)
	}
	if err := in.Fin.Validate(in.G); err != nil {
		return fmt.Errorf("dynflow: final path: %w", err)
	}
	if in.Init.Source() != in.Fin.Source() {
		return errors.New("dynflow: paths disagree on source")
	}
	if in.Init.Dest() != in.Fin.Dest() {
		return errors.New("dynflow: paths disagree on destination")
	}
	for _, l := range in.Init.Links(in.G) {
		if l.Cap < in.Demand {
			return fmt.Errorf("dynflow: initial path link %s->%s capacity %d < demand %d",
				in.G.Name(l.From), in.G.Name(l.To), l.Cap, in.Demand)
		}
	}
	for _, l := range in.Fin.Links(in.G) {
		if l.Cap < in.Demand {
			return fmt.Errorf("dynflow: final path link %s->%s capacity %d < demand %d",
				in.G.Name(l.From), in.G.Name(l.To), l.Cap, in.Demand)
		}
	}
	for i := 1; i < len(in.Init); i++ {
		if l, _ := in.G.Link(in.Init[i-1], in.Init[i]); l.Delay < 1 {
			return fmt.Errorf("dynflow: initial path link %s->%s has delay %d (schedulers require >= 1)",
				in.G.Name(l.From), in.G.Name(l.To), l.Delay)
		}
	}
	for i := 1; i < len(in.Fin); i++ {
		if l, _ := in.G.Link(in.Fin[i-1], in.Fin[i]); l.Delay < 1 {
			return fmt.Errorf("dynflow: final path link %s->%s has delay %d (schedulers require >= 1)",
				in.G.Name(l.From), in.G.Name(l.To), l.Delay)
		}
	}
	return nil
}

// Source returns the common source switch.
func (in *Instance) Source() graph.NodeID { return in.Init.Source() }

// Dest returns the common destination switch.
func (in *Instance) Dest() graph.NodeID { return in.Init.Dest() }

// OldNext returns v's next hop on the initial path, or Invalid.
func (in *Instance) OldNext(v graph.NodeID) graph.NodeID {
	if idx := in.ensureIndex(); v >= 0 && int(v) < len(idx.oldNext) {
		return idx.oldNext[v]
	}
	return graph.Invalid
}

// NewNext returns v's next hop on the final path, or Invalid.
func (in *Instance) NewNext(v graph.NodeID) graph.NodeID {
	if idx := in.ensureIndex(); v >= 0 && int(v) < len(idx.newNext) {
		return idx.newNext[v]
	}
	return graph.Invalid
}

// NeedsUpdate reports whether v requires a rule change: v forwards on the
// final path and its final next hop differs from its initial one (including
// the case where v had no initial rule).
func (in *Instance) NeedsUpdate(v graph.NodeID) bool {
	nn := in.NewNext(v)
	if nn == graph.Invalid {
		return false
	}
	return in.OldNext(v) != nn
}

// UpdateSet returns, in final-path order, the switches that require updates.
func (in *Instance) UpdateSet() []graph.NodeID {
	var out []graph.NodeID
	for _, v := range in.Fin[:len(in.Fin)-1] {
		if in.NeedsUpdate(v) {
			out = append(out, v)
		}
	}
	return out
}

// Schedule assigns each updated switch an absolute activation tick. A switch
// updated at tick t forwards per its old rule for packets arriving before t
// and per its new rule from t (inclusive) onward. Start is the first tick at
// which any update may take effect (the paper's t0).
type Schedule struct {
	Start Tick
	Times map[graph.NodeID]Tick
}

// NewSchedule returns an empty schedule starting at start.
func NewSchedule(start Tick) *Schedule {
	return &Schedule{Start: start, Times: make(map[graph.NodeID]Tick)}
}

// Set records that v updates at tick t.
func (s *Schedule) Set(v graph.NodeID, t Tick) { s.Times[v] = t }

// Time returns v's update tick and whether v is scheduled.
func (s *Schedule) Time(v graph.NodeID) (Tick, bool) {
	t, ok := s.Times[v]
	return t, ok
}

// Shifted returns a copy of s re-based to begin at start: every update
// keeps its offset from Start, so relative timing (and hence slack) is
// unchanged.
func (s *Schedule) Shifted(start Tick) *Schedule {
	out := NewSchedule(start)
	for v, tv := range s.Times {
		out.Set(v, start+(tv-s.Start))
	}
	return out
}

// End returns the latest scheduled tick, or Start when nothing is scheduled.
func (s *Schedule) End() Tick {
	end := s.Start
	for _, t := range s.Times {
		if t > end {
			end = t
		}
	}
	return end
}

// Makespan returns End − Start: the paper's total update time in time units.
func (s *Schedule) Makespan() Tick { return s.End() - s.Start }

// Rounds returns the distinct update ticks in ascending order.
func (s *Schedule) Rounds() []Tick {
	seen := make(map[Tick]struct{}, len(s.Times))
	for _, t := range s.Times {
		seen[t] = struct{}{}
	}
	out := make([]Tick, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// At returns the switches updating at tick t, sorted by ID.
func (s *Schedule) At(t Tick) []graph.NodeID {
	var out []graph.NodeID
	for v, tv := range s.Times {
		if tv == t {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Complete reports whether every switch in the instance's update set is
// scheduled no earlier than Start.
func (s *Schedule) Complete(in *Instance) bool {
	for _, v := range in.UpdateSet() {
		t, ok := s.Times[v]
		if !ok || t < s.Start {
			return false
		}
	}
	return true
}

// Clone returns a deep copy.
func (s *Schedule) Clone() *Schedule {
	c := NewSchedule(s.Start)
	for v, t := range s.Times {
		c.Times[v] = t
	}
	return c
}

// String renders the schedule grouped by tick, e.g. "t0:[v2] t1:[v3]".
func (s *Schedule) String() string {
	var b strings.Builder
	for i, t := range s.Rounds() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "t%d:%v", t-s.Start, s.At(t))
	}
	return b.String()
}

// Format renders the schedule with switch names from the instance graph.
func (s *Schedule) Format(in *Instance) string {
	var b strings.Builder
	for i, t := range s.Rounds() {
		if i > 0 {
			b.WriteString("; ")
		}
		names := make([]string, 0, 4)
		for _, v := range s.At(t) {
			names = append(names, in.G.Name(v))
		}
		fmt.Fprintf(&b, "t+%d: %s", t-s.Start, strings.Join(names, ","))
	}
	return b.String()
}

// NextHopAt returns the forwarding decision of switch v for a packet
// arriving at tick t under schedule s: the new rule if v has been scheduled
// and activated by t, otherwise the old rule; Invalid means no matching rule
// (blackhole).
func NextHopAt(in *Instance, s *Schedule, v graph.NodeID, t Tick) graph.NodeID {
	tv, ok := s.Times[v]
	return ruleAt(in.NewNext(v), in.OldNext(v), ok && t >= tv)
}

// ruleAt is the forwarding rule of one switch: its new next hop once it
// has one and has activated it, otherwise its old next hop. A switch only
// on the final path that has not yet activated its new rule has no rule
// for this flow at all (Invalid).
func ruleAt(newNext, oldNext graph.NodeID, activated bool) graph.NodeID {
	if activated && newNext != graph.Invalid {
		return newNext
	}
	return oldNext
}
