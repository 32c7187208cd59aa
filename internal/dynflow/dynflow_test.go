package dynflow

import (
	"encoding/json"
	"reflect"
	"testing"

	"github.com/chronus-sdn/chronus/internal/graph"
)

// fig1 builds the paper's running example (Fig. 1): six switches, unit link
// capacities and delays, initial path v1..v6 along the line and final path
// reversing through the same switches (v1->v5->v4->v3->v2->v6). The paper's
// congestion-and-loop-free timed sequence is v2@t0, v3@t1, {v1,v4}@t2,
// v5@t3.
func fig1(t testing.TB) *Instance {
	t.Helper()
	g := graph.New()
	v := g.AddNodes("v1", "v2", "v3", "v4", "v5", "v6")
	// Initial (solid) path links.
	g.MustAddLink(v[0], v[1], 1, 1)
	g.MustAddLink(v[1], v[2], 1, 1)
	g.MustAddLink(v[2], v[3], 1, 1)
	g.MustAddLink(v[3], v[4], 1, 1)
	g.MustAddLink(v[4], v[5], 1, 1)
	// Final (dashed) path links.
	g.MustAddLink(v[0], v[4], 1, 1)
	g.MustAddLink(v[4], v[3], 1, 1)
	g.MustAddLink(v[3], v[2], 1, 1)
	g.MustAddLink(v[2], v[1], 1, 1)
	g.MustAddLink(v[1], v[5], 1, 1)
	in := &Instance{
		G:      g,
		Demand: 1,
		Init:   graph.Path{v[0], v[1], v[2], v[3], v[4], v[5]},
		Fin:    graph.Path{v[0], v[4], v[3], v[2], v[1], v[5]},
	}
	if err := in.Validate(); err != nil {
		t.Fatalf("fig1 instance invalid: %v", err)
	}
	return in
}

// paperSchedule is the timed sequence from Fig. 1(e)-(h).
func paperSchedule(in *Instance) *Schedule {
	g := in.G
	s := NewSchedule(0)
	s.Set(g.Lookup("v2"), 0)
	s.Set(g.Lookup("v3"), 1)
	s.Set(g.Lookup("v1"), 2)
	s.Set(g.Lookup("v4"), 2)
	s.Set(g.Lookup("v5"), 3)
	return s
}

func TestInstanceValidate(t *testing.T) {
	in := fig1(t)
	bad := *in
	bad.Demand = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero demand accepted")
	}
	bad = *in
	bad.Fin = graph.Path{in.Init[1], in.Init[2]}
	if err := bad.Validate(); err == nil {
		t.Fatal("mismatched endpoints accepted")
	}
	bad = *in
	bad.Demand = 5
	if err := bad.Validate(); err == nil {
		t.Fatal("demand above path capacity accepted")
	}
}

func TestUpdateSet(t *testing.T) {
	in := fig1(t)
	us := in.UpdateSet()
	if len(us) != 5 {
		t.Fatalf("update set = %v, want 5 switches", us)
	}
	for _, v := range us {
		if v == in.Dest() {
			t.Fatal("destination in update set")
		}
		if !in.NeedsUpdate(v) {
			t.Fatalf("NeedsUpdate(%s) = false for member of update set", in.G.Name(v))
		}
	}
	if in.NeedsUpdate(in.Dest()) {
		t.Fatal("destination needs update")
	}
}

func TestNeedsUpdateSharedSuffix(t *testing.T) {
	// When initial and final paths share a suffix, suffix switches keep
	// their next hops and need no update.
	g := graph.New()
	v := g.AddNodes("a", "b", "c", "d")
	g.MustAddLink(v[0], v[1], 2, 1)
	g.MustAddLink(v[1], v[3], 2, 1)
	g.MustAddLink(v[0], v[2], 2, 1)
	g.MustAddLink(v[2], v[1], 2, 1)
	in := &Instance{
		G:      g,
		Demand: 1,
		Init:   graph.Path{v[0], v[1], v[3]},
		Fin:    graph.Path{v[0], v[2], v[1], v[3]},
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	if in.NeedsUpdate(v[1]) {
		t.Fatal("b keeps its next hop but NeedsUpdate is true")
	}
	if !in.NeedsUpdate(v[0]) || !in.NeedsUpdate(v[2]) {
		t.Fatal("a and c must need updates")
	}
}

func TestScheduleBasics(t *testing.T) {
	in := fig1(t)
	s := paperSchedule(in)
	if got := s.Makespan(); got != 3 {
		t.Fatalf("Makespan = %d, want 3", got)
	}
	if got := s.End(); got != 3 {
		t.Fatalf("End = %d, want 3", got)
	}
	rounds := s.Rounds()
	if len(rounds) != 4 {
		t.Fatalf("Rounds = %v, want 4 rounds", rounds)
	}
	if got := s.At(2); len(got) != 2 {
		t.Fatalf("At(2) = %v, want two switches", got)
	}
	if !s.Complete(in) {
		t.Fatal("paper schedule reported incomplete")
	}
	c := s.Clone()
	c.Set(in.G.Lookup("v5"), 9)
	if got, _ := s.Time(in.G.Lookup("v5")); got != 3 {
		t.Fatal("Clone is shallow")
	}
	partial := NewSchedule(0)
	if partial.Complete(in) {
		t.Fatal("empty schedule reported complete")
	}
	if partial.Makespan() != 0 {
		t.Fatal("empty schedule has nonzero makespan")
	}
}

func TestNextHopAtFlip(t *testing.T) {
	in := fig1(t)
	g := in.G
	v2 := g.Lookup("v2")
	s := NewSchedule(0)
	s.Set(v2, 5)
	if got := NextHopAt(in, s, v2, 4); got != g.Lookup("v3") {
		t.Fatalf("before flip: next hop = %s", g.Name(got))
	}
	if got := NextHopAt(in, s, v2, 5); got != g.Lookup("v6") {
		t.Fatalf("at flip: next hop = %s", g.Name(got))
	}
	// Unscheduled switch keeps the old rule.
	v3 := g.Lookup("v3")
	if got := NextHopAt(in, s, v3, 100); got != g.Lookup("v4") {
		t.Fatalf("unscheduled switch moved: %s", g.Name(got))
	}
}

func TestTraceOldPath(t *testing.T) {
	in := fig1(t)
	s := NewSchedule(0) // nothing updated
	tr := TraceEmission(in, s, -5)
	if tr.Status != Delivered {
		t.Fatalf("status = %v", tr.Status)
	}
	if len(tr.Hops) != 5 {
		t.Fatalf("hops = %d, want 5", len(tr.Hops))
	}
	if a := arrival(&tr); a != 0 {
		t.Fatalf("arrive = %d, want 0", a)
	}
}

func TestTraceLoop(t *testing.T) {
	in := fig1(t)
	g := in.G
	// Only v4 updated at 0: in-flight flow at v4 bounces back to v3.
	s := NewSchedule(0)
	s.Set(g.Lookup("v4"), 0)
	tr := TraceEmission(in, s, -3) // at v4 exactly at tick 0
	if tr.Status != Looped {
		t.Fatalf("status = %v, want looped", tr.Status)
	}
	if tr.At != g.Lookup("v3") {
		t.Fatalf("loop at %s, want v3", g.Name(tr.At))
	}
}

func TestTraceBlackhole(t *testing.T) {
	// A switch that exists only on the final path and is not yet activated
	// blackholes traffic steered to it.
	g := graph.New()
	v := g.AddNodes("s", "m", "n", "d")
	g.MustAddLink(v[0], v[1], 2, 1)
	g.MustAddLink(v[1], v[3], 2, 1)
	g.MustAddLink(v[0], v[2], 2, 1)
	g.MustAddLink(v[2], v[3], 2, 1)
	in := &Instance{G: g, Demand: 1,
		Init: graph.Path{v[0], v[1], v[3]},
		Fin:  graph.Path{v[0], v[2], v[3]},
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	s := NewSchedule(0)
	s.Set(v[0], 0) // source flips; n has no rule yet
	tr := TraceEmission(in, s, 0)
	if tr.Status != Blackholed || tr.At != v[2] {
		t.Fatalf("trace = %+v, want blackhole at n", tr)
	}
	// Installing n first then flipping the source is clean.
	s2 := NewSchedule(0)
	s2.Set(v[2], 0)
	s2.Set(v[0], 1)
	if r := Validate(in, s2); !r.OK() {
		t.Fatalf("install-before-use schedule rejected: %s", r.Summary())
	}
}

func TestValidatePaperSchedule(t *testing.T) {
	in := fig1(t)
	r := Validate(in, paperSchedule(in))
	if !r.OK() {
		t.Fatalf("paper schedule rejected: %s", r.Summary())
	}
	if r.WindowEnd <= r.WindowStart {
		t.Fatal("degenerate validation window")
	}
}

// flipAll is the "no coordination" straw man of the paper's Fig. 2(a):
// every switch in the update set flips at start.
func flipAll(in *Instance, start Tick) *Schedule {
	s := NewSchedule(start)
	for _, v := range in.UpdateSet() {
		s.Set(v, start)
	}
	return s
}

// arrival is the tick tr terminated: its delivery tick, or its arrival at
// the violating switch.
func arrival(tr *Trace) Tick {
	if len(tr.Hops) == 0 {
		return tr.Emit
	}
	return tr.Hops[len(tr.Hops)-1].Arrive
}

func TestValidateImmediateLoops(t *testing.T) {
	in := fig1(t)
	r := Validate(in, flipAll(in, 0))
	if r.OK() {
		t.Fatal("simultaneous flip of the reversal example must violate")
	}
	if len(r.Loops) == 0 {
		t.Fatal("expected forwarding loops, got none")
	}
}

// congestingSchedule flips v1 and v2 at t0: new flow from v1 meets
// in-flight old flow on (v5, v6) — the congestion mechanism from the
// motivating example (load 2 on a capacity-1 link).
func congestingSchedule(in *Instance) *Schedule {
	g := in.G
	s := NewSchedule(0)
	s.Set(g.Lookup("v1"), 0)
	s.Set(g.Lookup("v2"), 0)
	// Remaining switches late enough to not disturb the window.
	s.Set(g.Lookup("v3"), 10)
	s.Set(g.Lookup("v4"), 11)
	s.Set(g.Lookup("v5"), 12)
	return s
}

func TestValidateDetectsCongestion(t *testing.T) {
	in := fig1(t)
	g := in.G
	r := Validate(in, congestingSchedule(in))
	if len(r.Congestion) == 0 {
		t.Fatalf("expected congestion, got: %s", r.Summary())
	}
	found := false
	for _, ev := range r.Congestion {
		if ev.Link.From == g.Lookup("v5") && ev.Link.To == g.Lookup("v6") {
			found = true
			if ev.Load != 2 || ev.Cap != 1 {
				t.Fatalf("congestion event = %+v, want load 2 cap 1", ev)
			}
		}
	}
	if !found {
		t.Fatalf("no congestion on (v5,v6): %+v", r.Congestion)
	}
}

func TestValidateWindowCoversInFlight(t *testing.T) {
	in := fig1(t)
	s := paperSchedule(in)
	r := Validate(in, s)
	if r.WindowStart != -5 {
		t.Fatalf("WindowStart = %d, want -5 (t0 - φ(p_init))", r.WindowStart)
	}
	if r.WindowEnd < s.End() {
		t.Fatalf("WindowEnd = %d before schedule end %d", r.WindowEnd, s.End())
	}
}

func TestReportSummary(t *testing.T) {
	in := fig1(t)
	ok := Validate(in, paperSchedule(in))
	if got := ok.Summary(); got == "" || ok.CongestedLinkInstances() != 0 {
		t.Fatalf("Summary/counters wrong for clean report: %q", got)
	}
	bad := Validate(in, flipAll(in, 0))
	if got := bad.Summary(); got == "" {
		t.Fatal("empty summary for violating report")
	}
}

// TestValidateJointCongestionOrder: two links that go over capacity at the
// same ticks must report in (Depart, From, To) order on every run, not in
// the iteration order of the load map.
func TestValidateJointCongestionOrder(t *testing.T) {
	g := graph.New()
	v := g.AddNodes("a", "b", "c", "d")
	g.MustAddLink(v[2], v[3], 1, 1)
	g.MustAddLink(v[0], v[1], 1, 1)
	steady := func(name string, from, to graph.NodeID) FlowUpdate {
		p := graph.Path{from, to}
		return FlowUpdate{Name: name, In: &Instance{G: g, Demand: 1, Init: p, Fin: p}, S: NewSchedule(0)}
	}
	updates := []FlowUpdate{
		steady("ab1", v[0], v[1]), steady("cd1", v[2], v[3]),
		steady("ab2", v[0], v[1]), steady("cd2", v[2], v[3]),
	}
	for run := 0; run < 50; run++ {
		r, err := ValidateJoint(updates)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Congestion) < 4 {
			t.Fatalf("want both links congested at two ticks or more, got %+v", r.Congestion)
		}
		for i := 1; i < len(r.Congestion); i++ {
			if !r.Congestion[i-1].Link.before(r.Congestion[i].Link) {
				t.Fatalf("run %d: %+v reported before %+v", run, r.Congestion[i-1].Link, r.Congestion[i].Link)
			}
		}
	}
}

// TestValidateHonoursGraphEdits: Validate reads the graph as it is at the
// call, so it must notice an in-place SetCapacity, SetDelay or RemoveLink
// between two calls on the same *Instance, a different graph assigned to
// Instance.G, and a JSON decode into the instance's graph.
func TestValidateHonoursGraphEdits(t *testing.T) {
	in := fig1(t)
	g := in.G
	v2, v5, v6 := g.Lookup("v2"), g.Lookup("v5"), g.Lookup("v6")
	s := congestingSchedule(in)
	congested := func(r *Report) bool {
		for _, ev := range r.Congestion {
			if ev.Link.From == v5 && ev.Link.To == v6 {
				return true
			}
		}
		return false
	}

	before := Validate(in, s)
	if !congested(before) {
		t.Fatalf("fixture: expected congestion on (v5,v6), got: %s", before.Summary())
	}

	if err := g.SetCapacity(v5, v6, 2); err != nil {
		t.Fatal(err)
	}
	if r := Validate(in, s); congested(r) {
		t.Fatalf("in-place SetCapacity(v5,v6,2) ignored: %s", r.Summary())
	}

	// v2 -> v6 is the last hop of the final path: stretching it by 3
	// ticks delays the last arrival by as much.
	if err := g.SetDelay(v2, v6, 4); err != nil {
		t.Fatal(err)
	}
	if r := Validate(in, s); r.LatestArrival != before.LatestArrival+3 {
		t.Fatalf("in-place SetDelay(v2,v6,4) ignored: LatestArrival = %d, want %d", r.LatestArrival, before.LatestArrival+3)
	}

	// Swap in a copy that differs only in the capacity.
	tight := g.Clone()
	if err := tight.SetCapacity(v5, v6, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.SetCapacity(v5, v6, 2); err != nil { // same value: nothing changes
		t.Fatal(err)
	}
	if r := Validate(in, s); congested(r) {
		t.Fatalf("capacity 2 on (v5,v6) must not congest: %s", r.Summary())
	}
	in.G = tight
	if r := Validate(in, s); !congested(r) {
		t.Fatalf("graph swapped for a Clone() with capacity 1 on (v5,v6) ignored: %s", r.Summary())
	}

	if !tight.RemoveLink(v2, v6) {
		t.Fatal("fixture: no link v2->v6")
	}
	if r := Validate(in, s); len(r.Blackholes) == 0 {
		t.Fatalf("in-place RemoveLink(v2,v6) ignored: %s", r.Summary())
	}

	// Decoding over the instance's graph restores the original links in
	// place: the same *Graph, v2->v6 back and (v5,v6) at capacity 1.
	data, err := json.Marshal(fig1(t).G)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, in.G); err != nil {
		t.Fatal(err)
	}
	if r := Validate(in, s); !reflect.DeepEqual(r, before) {
		t.Fatalf("UnmarshalJSON into Instance.G ignored: %s, want %s", r.Summary(), before.Summary())
	}
}
