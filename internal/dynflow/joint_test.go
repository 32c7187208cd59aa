package dynflow

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/chronus-sdn/chronus/internal/graph"
)

// validateJointReference is ValidateJoint as it was before it moved onto
// the flows' tracers: every emission through TraceEmission, loads in a map
// keyed by link instance. It is the oracle of the differential test below.
func validateJointReference(updates []FlowUpdate) (*JointReport, error) {
	r := &JointReport{}
	if len(updates) == 0 {
		return r, nil
	}
	g := updates[0].In.G
	for _, u := range updates {
		if u.In.G != g {
			return nil, fmt.Errorf("dynflow: flow %q uses a different graph", u.Name)
		}
	}

	loads := make(map[LinkInstance]graph.Capacity)
	load := func(u FlowUpdate, tr *Trace) {
		for _, h := range tr.Hops {
			loads[LinkInstance{From: h.From, To: h.To, Depart: h.Depart}] += u.In.Demand
		}
	}
	// Each flow's own window: start .. end, then on to the latest arrival.
	latest := make([]Tick, len(updates))
	for i, u := range updates {
		start := u.S.Start - Tick(u.In.Init.Delay(g))
		end := u.S.End()
		latest[i] = end
		var traces []Trace
		for e := start; e <= end; e++ {
			tr := TraceEmission(u.In, u.S, e)
			traces = append(traces, tr)
			if a := arrival(&tr); a > latest[i] {
				latest[i] = a
			}
		}
		for e := end + 1; e <= latest[i]; e++ {
			traces = append(traces, TraceEmission(u.In, u.S, e))
		}
		for _, tr := range traces {
			load(u, &tr)
			switch tr.Status {
			case Looped, Blackholed:
				r.Events = append(r.Events, JointEvent{Kind: tr.Status, Flow: u.Name, At: tr.At, Tick: arrival(&tr)})
			}
		}
	}

	// Joint validation must cover the whole horizon of all flows: a steady
	// flow keeps loading its links while another migrates, and before a
	// flow's own window opens its units are not modeled. To keep the check
	// sound, extend each flow's window to the global one, loading every
	// emission tick once: the extension past the window starts after the
	// flow's latest arrival, where its own window ended.
	globalLo, globalHi := windowBoundsReference(updates)
	for i, u := range updates {
		lo := u.S.Start - Tick(u.In.Init.Delay(g))
		for e := globalLo; e < lo; e++ {
			tr := TraceEmission(u.In, u.S, e)
			load(u, &tr)
		}
		for e := latest[i] + 1; e <= globalHi; e++ {
			tr := TraceEmission(u.In, u.S, e)
			load(u, &tr)
		}
	}

	for li, load := range loads {
		l, ok := g.Link(li.From, li.To)
		if !ok {
			continue
		}
		if load > l.Cap {
			r.Congestion = append(r.Congestion, JointCongestion{Link: li, Load: load, Cap: l.Cap})
		}
	}
	// loads is a map: without the (From, To) tie-break, links congested at
	// the same tick would come out in iteration order.
	sort.Slice(r.Congestion, func(i, j int) bool { return r.Congestion[i].Link.before(r.Congestion[j].Link) })
	sort.Slice(r.Events, func(i, j int) bool { return r.Events[i].Tick < r.Events[j].Tick })
	return r, nil
}

// windowBoundsReference is the joint window: from the earliest window
// start to the latest tail.
func windowBoundsReference(updates []FlowUpdate) (Tick, Tick) {
	g := updates[0].In.G
	lo := updates[0].S.Start - Tick(updates[0].In.Init.Delay(g))
	hi := updates[0].S.End()
	for _, u := range updates {
		if l := u.S.Start - Tick(u.In.Init.Delay(g)); l < lo {
			lo = l
		}
		if h := tailOfReference(u); h > hi {
			hi = h
		}
	}
	return lo, hi
}

// tailOfReference is the latest arrival among the flow's last φ(p_init)
// emissions up to its schedule's end (the end itself if later): the units
// still in flight when the schedule ends.
func tailOfReference(u FlowUpdate) Tick {
	end := u.S.End()
	tail := end
	for e := end - Tick(u.In.Init.Delay(u.In.G)); e <= end; e++ {
		tr := TraceEmission(u.In, u.S, e)
		if a := arrival(&tr); a > tail {
			tail = a
		}
	}
	return tail
}

// randomJointBatch draws 2–5 flows on one small shared graph: random
// endpoints, two random paths each through random interior switches, links
// created on demand with capacities 1–3 and delays 0–3 (so flows sharing a
// link oversubscribe it often), demands 1–2, and a random partial schedule
// per flow with its own start — late and missing activations loop and
// blackhole. Now and then a final-path link is removed after the fact, so
// a rule dangles.
func randomJointBatch(rng *rand.Rand) []FlowUpdate {
	g := graph.New()
	n := 5 + rng.Intn(6)
	ids := make([]graph.NodeID, n)
	for i := range ids {
		ids[i] = g.AddNode(fmt.Sprintf("s%d", i))
	}
	path := func(src, dst graph.NodeID) graph.Path {
		p := graph.Path{src}
		for _, k := range rng.Perm(n) {
			if v := ids[k]; v != src && v != dst && rng.Intn(3) == 0 {
				p = append(p, v)
			}
		}
		p = append(p, dst)
		for i := 1; i < len(p); i++ {
			if _, ok := g.Link(p[i-1], p[i]); !ok {
				g.MustAddLink(p[i-1], p[i], graph.Capacity(1+rng.Intn(3)), graph.Delay(rng.Intn(4)))
			}
		}
		return p
	}
	updates := make([]FlowUpdate, 2+rng.Intn(4))
	for i := range updates {
		src, dst := ids[rng.Intn(n)], ids[rng.Intn(n)]
		for dst == src {
			dst = ids[rng.Intn(n)]
		}
		in := &Instance{G: g, Demand: graph.Capacity(1 + rng.Intn(2)), Init: path(src, dst), Fin: path(src, dst)}
		s := NewSchedule(Tick(rng.Intn(20)))
		for _, v := range in.UpdateSet() {
			if rng.Intn(5) > 0 {
				s.Set(v, s.Start+Tick(rng.Intn(10)))
			}
		}
		updates[i] = FlowUpdate{Name: fmt.Sprintf("f%d", i), In: in, S: s}
	}
	if u := updates[rng.Intn(len(updates))]; rng.Intn(4) == 0 {
		onInit := make(map[[2]graph.NodeID]bool)
		for _, o := range updates {
			for i := 1; i < len(o.In.Init); i++ {
				onInit[[2]graph.NodeID{o.In.Init[i-1], o.In.Init[i]}] = true
			}
		}
		// Initial paths must stay whole: the window start is φ(p_init).
		for i := 1; i < len(u.In.Fin); i++ {
			if !onInit[[2]graph.NodeID{u.In.Fin[i-1], u.In.Fin[i]}] {
				g.RemoveLink(u.In.Fin[i-1], u.In.Fin[i])
				break
			}
		}
	}
	return updates
}

// jointCorpusSeeds is how many seeds of randomJointBatch the differential
// test runs. In seeds 975, 1874 and 1937 (also under testdata/fuzz) a
// flow's own window ends after its tail and before the joint window does,
// so a validator that extends it from the tail loads some emissions twice:
// one congested link instance too many in seed 975, five in seed 1937.
const jointCorpusSeeds = 2000

// TestValidateJointMatchesReference: the tracer-based joint validator
// returns the reference's JointReport field for field — congestion order,
// event order among equal ticks, loads past each flow's own window — on
// random batches, most of which violate something.
func TestValidateJointMatchesReference(t *testing.T) {
	var congested, looped, blackholed, clean int
	for seed := int64(0); seed < jointCorpusSeeds; seed++ {
		want := checkJointMatchesReference(t, seed)
		if len(want.Congestion) > 0 {
			congested++
		}
		for _, ev := range want.Events {
			if ev.Kind == Looped {
				looped++
			} else {
				blackholed++
			}
		}
		if want.OK() {
			clean++
		}
	}
	if congested < 250 || looped < 250 || blackholed < 250 || clean == 0 {
		t.Fatalf("corpus too tame: %d congested batches, %d loop and %d blackhole events, %d clean batches", congested, looped, blackholed, clean)
	}
}

// FuzzValidateJoint runs the differential on the batch drawn from a fuzzed
// seed.
func FuzzValidateJoint(f *testing.F) {
	f.Add(int64(0)) // more under testdata/fuzz
	f.Fuzz(func(t *testing.T, seed int64) { checkJointMatchesReference(t, seed) })
}

// checkJointMatchesReference compares ValidateJoint with the reference on
// randomJointBatch(seed) and returns the reference's report.
func checkJointMatchesReference(t *testing.T, seed int64) *JointReport {
	t.Helper()
	updates := randomJointBatch(rand.New(rand.NewSource(seed)))
	want, err := validateJointReference(updates)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ValidateJoint(updates)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("seed %d: joint report differs from the reference\n got %s, events %+v\nwant %s, events %+v", seed, got.Summary(), got.Events, want.Summary(), want.Events)
	}
	return want
}
