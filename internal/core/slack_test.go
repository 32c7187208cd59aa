package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/graph"
	"github.com/chronus-sdn/chronus/internal/obs"
	"github.com/chronus-sdn/chronus/internal/topo"
)

// scheduleSlackReference is the oracle ScheduleSlack is held to: per
// switch, delay that one activation tick by tick and re-validate the whole
// schedule until the validator reports a violation. It was the production
// implementation before the incremental certificate replaced it.
func scheduleSlackReference(in *dynflow.Instance, s *dynflow.Schedule) []SwitchSlack {
	ids := make([]graph.NodeID, 0, len(s.Times))
	for v := range s.Times {
		ids = append(ids, v)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]SwitchSlack, 0, len(ids))
	if !dynflow.Validate(in, s).OK() {
		for _, v := range ids {
			out = append(out, SwitchSlack{V: v, Time: s.Times[v], Critical: true})
		}
		return out
	}
	horizon := autoMaxTicks(in)
	for _, v := range ids {
		slack := horizon
		trial := s.Clone()
		for d := dynflow.Tick(1); d <= horizon; d++ {
			trial.Times[v] = s.Times[v] + d
			if !dynflow.Validate(in, trial).OK() {
				slack = d - 1
				break
			}
		}
		out = append(out, SwitchSlack{V: v, Time: s.Times[v], Slack: slack, Critical: slack == 0})
	}
	return out
}

// diffSlack compares ScheduleSlack with the oracle entry by entry and
// returns the incremental result.
func diffSlack(t testing.TB, label string, in *dynflow.Instance, s *dynflow.Schedule) []SwitchSlack {
	t.Helper()
	got, want := ScheduleSlack(in, s), scheduleSlackReference(in, s)
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, reference has %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: entry %d = %+v, reference %+v", label, i, got[i], want[i])
		}
	}
	return got
}

// checkCertificate asserts what a slack value certifies: delaying by
// Slack keeps the schedule clean, one more tick (below the cap) breaks it.
func checkCertificate(t testing.TB, label string, in *dynflow.Instance, s *dynflow.Schedule, slacks []SwitchSlack) {
	t.Helper()
	horizon := autoMaxTicks(in)
	for _, sl := range slacks {
		trial := s.Clone()
		trial.Times[sl.V] = sl.Time + sl.Slack
		if !dynflow.Validate(in, trial).OK() {
			t.Errorf("%s: switch %d: delay by slack %d should still validate", label, sl.V, sl.Slack)
		}
		if sl.Slack < horizon {
			trial.Times[sl.V] = sl.Time + sl.Slack + 1
			if dynflow.Validate(in, trial).OK() {
				t.Errorf("%s: switch %d: delay by slack+1 = %d should violate", label, sl.V, sl.Slack+1)
			}
		}
	}
}

func TestScheduleSlackFig1(t *testing.T) {
	in := topo.Fig1Example()
	res, err := Greedy(in, Options{Mode: ModeExact})
	if err != nil {
		t.Fatal(err)
	}
	slacks := ScheduleSlack(in, res.Schedule)
	if len(slacks) != len(res.Schedule.Times) {
		t.Fatalf("got %d entries, want %d", len(slacks), len(res.Schedule.Times))
	}
	horizon := autoMaxTicks(in)
	anyCritical, anyLoose := false, false
	for i, s := range slacks {
		if i > 0 && slacks[i-1].V >= s.V {
			t.Fatalf("not sorted by NodeID: %+v", slacks)
		}
		if s.Time != res.Schedule.Times[s.V] {
			t.Errorf("switch %d: Time = %d, want %d", s.V, s.Time, res.Schedule.Times[s.V])
		}
		if s.Slack < 0 || s.Slack > horizon {
			t.Errorf("switch %d: slack %d outside [0, %d]", s.V, s.Slack, horizon)
		}
		if s.Critical != (s.Slack == 0) {
			t.Errorf("switch %d: Critical=%v but Slack=%d", s.V, s.Critical, s.Slack)
		}
		anyCritical = anyCritical || s.Critical
		anyLoose = anyLoose || s.Slack > 0
	}
	checkCertificate(t, "fig1", in, res.Schedule, slacks)
	if !anyCritical {
		t.Error("fig1 should have at least one zero-slack (critical) switch")
	}
	if !anyLoose {
		t.Error("fig1 should have at least one switch with positive slack")
	}
}

func TestScheduleSlackViolatingScheduleAllCritical(t *testing.T) {
	in := topo.Fig1Example()
	oneShot := dynflow.NewSchedule(0)
	for _, v := range in.UpdateSet() {
		oneShot.Set(v, 0)
	}
	if dynflow.Validate(in, oneShot).OK() {
		t.Fatal("fig1 one-shot should violate (precondition)")
	}
	for _, s := range diffSlack(t, "one-shot", in, oneShot) {
		if !s.Critical || s.Slack != 0 {
			t.Errorf("switch %d: %+v, want zero-slack critical", s.V, s)
		}
	}
}

// shortcutInstance is s→a→m→b→d migrating to s→m→d at the given demand.
// The new route reaches m two ticks sooner than the old one, so for two
// ticks after s flips m forwards two units at once: its old link carries
// that, its new link m→d does not. m therefore has to flip after s, and
// delaying s into m's activation congests m→d.
func shortcutInstance(demand graph.Capacity) (*dynflow.Instance, []graph.NodeID) {
	g := graph.New()
	v := g.AddNodes("s", "a", "m", "b", "d")
	g.MustAddLink(v[0], v[1], 2*demand, 1)
	g.MustAddLink(v[1], v[2], 2*demand, 2)
	g.MustAddLink(v[2], v[3], 2*demand, 1)
	g.MustAddLink(v[3], v[4], 2*demand, 1)
	g.MustAddLink(v[0], v[2], demand, 1)
	g.MustAddLink(v[2], v[4], 2*demand-1, 1)
	return &dynflow.Instance{
		G: g, Demand: demand,
		Init: graph.Path{v[0], v[1], v[2], v[3], v[4]},
		Fin:  graph.Path{v[0], v[2], v[4]},
	}, v
}

// detourInstance is s→a→d migrating to s→c→d, where c has no rule for the
// flow until it activates and s→c takes three ticks.
func detourInstance() (*dynflow.Instance, []graph.NodeID) {
	g := graph.New()
	v := g.AddNodes("s", "a", "c", "d")
	g.MustAddLink(v[0], v[1], 1, 1)
	g.MustAddLink(v[1], v[3], 1, 1)
	g.MustAddLink(v[0], v[2], 1, 3)
	g.MustAddLink(v[2], v[3], 1, 1)
	return &dynflow.Instance{
		G: g, Demand: 1,
		Init: graph.Path{v[0], v[1], v[3]},
		Fin:  graph.Path{v[0], v[2], v[3]},
	}, v
}

func scheduleOf(start dynflow.Tick, times map[graph.NodeID]dynflow.Tick) *dynflow.Schedule {
	s := dynflow.NewSchedule(start)
	for v, t := range times {
		s.Set(v, start+t)
	}
	return s
}

func TestScheduleSlackHandBuilt(t *testing.T) {
	fig1 := topo.Fig1Example()
	short, sv := shortcutInstance(1)
	short3, sv3 := shortcutInstance(3)
	detour, dv := detourInstance()
	shortTimes := map[graph.NodeID]dynflow.Tick{sv[0]: 0, sv[2]: 5}
	paper := topo.PaperSchedule(fig1)

	cases := []struct {
		name  string
		in    *dynflow.Instance
		s     *dynflow.Schedule
		v     graph.NodeID
		slack dynflow.Tick
		first string // what breaks at slack+1; "" when slack is the horizon cap
	}{
		{"loop", fig1, paper, fig1.G.Lookup("v3"), 4, "loop"},
		{"horizon cap", fig1, paper, fig1.G.Lookup("v5"), autoMaxTicks(fig1), ""},
		{"non-zero start", fig1, scheduleOf(40, paper.Times), fig1.G.Lookup("v4"), 2, "loop"},
		{"start before the first activation", fig1, scheduleOf(-7, map[graph.NodeID]dynflow.Tick{
			1: 9, 2: 10, 0: 11, 3: 11, 4: 12}), fig1.G.Lookup("v3"), 4, "loop"},
		{"congestion", short, scheduleOf(0, shortTimes), sv[0], 2, "congestion"},
		{"congestion, last switch capped", short, scheduleOf(0, shortTimes), sv[2], autoMaxTicks(short), ""},
		{"demand 3", short3, scheduleOf(12, map[graph.NodeID]dynflow.Tick{sv3[0]: 0, sv3[2]: 5}), sv3[0], 2, "congestion"},
		{"blackhole", detour, scheduleOf(0, map[graph.NodeID]dynflow.Tick{dv[0]: 0, dv[2]: 0}), dv[2], 3, "blackhole"},
		// Entries the forwarding rule never consults: the destination and
		// a switch id outside the graph. They only stretch the window.
		{"stray entries", detour, scheduleOf(0, map[graph.NodeID]dynflow.Tick{dv[0]: 0, dv[2]: 0, dv[3]: 2, 17: 1}),
			17, autoMaxTicks(detour), ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if !dynflow.Validate(tc.in, tc.s).OK() {
				t.Fatal("the case's schedule should validate clean")
			}
			slacks := diffSlack(t, tc.name, tc.in, tc.s)
			checkCertificate(t, tc.name, tc.in, tc.s, slacks)
			for _, sl := range slacks {
				if sl.V != tc.v {
					continue
				}
				if sl.Slack != tc.slack {
					t.Fatalf("slack = %d, want %d", sl.Slack, tc.slack)
				}
				if tc.first == "" {
					return
				}
				trial := tc.s.Clone()
				trial.Times[tc.v] = sl.Time + sl.Slack + 1
				r := dynflow.Validate(tc.in, trial)
				got := fmt.Sprintf("loop=%v blackhole=%v congestion=%v", len(r.Loops) > 0, len(r.Blackholes) > 0, len(r.Congestion) > 0)
				want := fmt.Sprintf("loop=%v blackhole=%v congestion=%v", tc.first == "loop", tc.first == "blackhole", tc.first == "congestion")
				if got != want {
					t.Errorf("first failure: %s, want %s", got, want)
				}
				return
			}
			t.Fatalf("switch %d not in the result", tc.v)
		})
	}
}

func TestScheduleSlackWorkCounters(t *testing.T) {
	in := topo.Fig1Example()
	s := topo.PaperSchedule(in)
	ScheduleSlack(in, s) // nil registry: counters are no-ops
	in.Obs = obs.NewRegistry()
	slacks := ScheduleSlack(in, s)
	var steps int64
	for _, sl := range slacks {
		steps += int64(min(sl.Slack+1, autoMaxTicks(in)))
	}
	if got := in.Obs.Counter("chronus_slack_steps_total").Value(); got != steps {
		t.Errorf("chronus_slack_steps_total = %d, want %d", got, steps)
	}
	if got := in.Obs.Counter("chronus_slack_retraced_emissions_total").Value(); got <= 0 || got > steps {
		t.Errorf("chronus_slack_retraced_emissions_total = %d, want in (0, %d]: fig1 diverts at most one unit per step", got, steps)
	}
	if got := in.Obs.Counter("chronus_validator_runs_total").Value(); got != 1 {
		t.Errorf("chronus_validator_runs_total = %d, want 1 full validation per call", got)
	}
}

// slackCorpus solves random instances of n switches until count of them
// are feasible and hands each, with its schedule, to fn.
func slackCorpus(t *testing.T, n, count int, fn func(label string, in *dynflow.Instance, s *dynflow.Schedule)) {
	t.Helper()
	for seed, done := int64(0), 0; done < count; seed++ {
		if seed > int64(40*count) {
			t.Fatalf("n=%d: only %d feasible instances in %d draws", n, done, seed)
		}
		in := topo.RandomInstance(rand.New(rand.NewSource(seed<<8+int64(n))), topo.DefaultRandomParams(n))
		res, err := Greedy(in, Options{Mode: ModeExact})
		if err != nil {
			continue
		}
		done++
		fn(fmt.Sprintf("n=%d seed=%d", n, seed), in, res.Schedule)
	}
}

func TestScheduleSlackMatchesReference(t *testing.T) {
	// The reference is the slow side (1.5 s on the emulation topology, ten
	// times that under -race), so -short runs a quarter of the corpus.
	scale := 1
	if testing.Short() {
		scale = 4
	} else {
		emu := topo.EmulationTopo()
		res, err := Greedy(emu, Options{Mode: ModeExact})
		if err != nil {
			t.Fatal(err)
		}
		diffSlack(t, "emulation", emu, res.Schedule)
	}

	for _, c := range []struct{ n, count int }{{6, 160}, {10, 110}, {14, 35}} {
		i := 0
		slackCorpus(t, c.n, c.count/scale, func(label string, in *dynflow.Instance, s *dynflow.Schedule) {
			diffSlack(t, label, in, s)
			// Every fourth small instance also runs a schedule with room in
			// it: greedy ones are tight, so most of their switches fail early.
			if i++; i%4 == 0 && c.n <= 10 {
				loose := dynflow.NewSchedule(s.Start + 5)
				for v, tv := range s.Times {
					loose.Set(v, loose.Start+3*(tv-s.Start))
				}
				if dynflow.Validate(in, loose).OK() {
					diffSlack(t, label+" stretched", in, loose)
				}
			}
		})
	}
}

func TestScheduleSlackMatchesReferenceLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("the reference takes seconds per instance at n = 24")
	}
	for _, c := range []struct{ n, count int }{{18, 4}, {24, 2}} {
		slackCorpus(t, c.n, c.count, func(label string, in *dynflow.Instance, s *dynflow.Schedule) {
			diffSlack(t, label, in, s)
		})
	}
}

// FuzzScheduleSlack holds the incremental certificate to the oracle and to
// the property it certifies on generated instances.
func FuzzScheduleSlack(f *testing.F) {
	f.Add(int64(11), uint8(7), uint8(2)) // more under testdata/fuzz
	f.Fuzz(func(t *testing.T, seed int64, n uint8, maxDelay uint8) {
		p := topo.DefaultRandomParams(3 + int(n%10))
		p.MaxDelay = 1 + graph.Delay(maxDelay%6)
		in := topo.RandomInstance(rand.New(rand.NewSource(seed)), p)
		res, err := Greedy(in, Options{Mode: ModeExact})
		if err != nil {
			t.Skip("infeasible")
		}
		slacks := diffSlack(t, "fuzz", in, res.Schedule)
		checkCertificate(t, "fuzz", in, res.Schedule, slacks)
	})
}
