package core

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/graph"
	"github.com/chronus-sdn/chronus/internal/obs"
	"github.com/chronus-sdn/chronus/internal/topo"
)

// greedyRef is Greedy in exact mode with the acceptance loop it had before
// the incremental kernel: every trial (v, t) sets v on the schedule and
// re-validates the whole window from scratch. It is the oracle the
// kernel-driven greedyExact is held to.
func greedyRef(in *dynflow.Instance, opts Options) (*Result, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	res := &Result{Schedule: dynflow.NewSchedule(opts.Start)}
	if len(in.UpdateSet()) == 0 {
		res.Report = dynflow.Validate(in, res.Schedule)
		res.Validations++
		return res, nil
	}
	ws := getWorkspace(in.G.NumNodes())
	defer putWorkspace(ws)
	return greedyExactRef(in, opts, newSchedMetrics(nil), res, ws)
}

// greedyExactRef is the per-trial Validate loop, kept verbatim.
func greedyExactRef(in *dynflow.Instance, opts Options, sm schedMetrics, res *Result, ws *workspace) (*Result, error) {
	s := res.Schedule
	pending := in.UpdateSet()
	maxTicks := opts.MaxTicks
	if maxTicks <= 0 {
		maxTicks = autoMaxTicks(in)
	}
	pathDrain := dynflow.Tick(in.Init.Delay(in.G) + in.Fin.Delay(in.G))
	drainHorizon := s.Start + dynflow.Tick(in.Init.Delay(in.G))
	var lastReport *dynflow.Report

	// Validator rejections stem from in-flight collisions that recede over
	// time but carry no closed-form retry tick, so rejected candidates back
	// off exponentially (reset whenever an acceptance changes the
	// configuration). This bounds revalidations per candidate per epoch to
	// a logarithm of the drain time at a small makespan cost. The backoff
	// state lives in the workspace's stamped arrays; resetSleep opens a
	// fresh epoch.
	ws.resetSleep()

	t := s.Start
	for len(pending) > 0 {
		if t-s.Start > maxTicks {
			if err := res.giveUp(opts, pending, t, fmt.Sprintf("exceeded tick budget %d", maxTicks)); err != nil {
				return res, err
			}
			break
		}
		res.TicksUsed++
		order, cycleErr := candidateOrder(in, s, pending, t, ws)
		if cycleErr != nil {
			res.DependencyCycles++
		}
		lc := newLoopChecker(in, s, t, ws)
		accepted := make(map[graph.NodeID]bool)
		for changed := true; changed; {
			changed = false
			for _, cand := range order {
				if accepted[cand.v] {
					continue
				}
				if su, _ := ws.sleepOf(cand.v); su > t {
					sm.deferred.Inc()
					continue
				}
				if !lc.ok(cand.v) {
					sm.deferred.Inc()
					continue
				}
				s.Set(cand.v, t)
				res.Validations++
				sm.validations.Inc()
				r := dynflow.Validate(in, s)
				if !r.OK() {
					delete(s.Times, cand.v)
					n := ws.bumpStrike(cand.v)
					backoff := dynflow.Tick(1) << minUint(uint(n)-1, 7)
					ws.setSleep(cand.v, t+backoff)
					sm.rejected.Inc()
					continue
				}
				lastReport = r
				accepted[cand.v] = true
				changed = true
				sm.accepted.Inc()
				if opts.Trace != nil {
					opts.Trace.Point(int64(t), "sched.accept", obs.A("switch", in.G.Name(cand.v)))
				}
				lc = newLoopChecker(in, s, t, ws)
				if ws.sleepCount > 0 {
					ws.resetSleep()
				}
			}
		}
		if len(accepted) > 0 {
			pending = removeAll(pending, accepted)
			if lastReport != nil && lastReport.LatestArrival > drainHorizon {
				drainHorizon = lastReport.LatestArrival
			}
			if dh := t + pathDrain; dh > drainHorizon {
				drainHorizon = dh
			}
			t++
			continue
		}
		// Nothing accepted: every pending candidate is either backing off
		// (validator rejection) or loop-parked (configuration-bound, so
		// only an acceptance can unlock it). Skip ahead to the earliest
		// backoff wake-up; if nobody is backing off, or the data plane has
		// drained, the configuration is static and the instance is
		// infeasible.
		next := dynflow.Tick(0)
		found := false
		for _, v := range pending {
			if su, ok := ws.sleepOf(v); ok && su > t {
				if !found || su < next {
					next = su
					found = true
				}
			}
		}
		if t > drainHorizon || !found {
			if err := res.giveUp(opts, pending, t, fmt.Sprintf("static configuration at tick %d with %d switches pending", t, len(pending))); err != nil {
				return res, err
			}
			break
		}
		t = next
	}
	res.Report = lastReport
	if res.Report == nil || res.BestEffort {
		res.Report = dynflow.Validate(in, s)
		res.Validations++
		sm.validations.Inc()
	}
	if !res.BestEffort && !res.Report.OK() {
		// Cannot happen: every acceptance was validator-approved and the
		// validator is deterministic. Guard anyway.
		return res, fmt.Errorf("core: internal error: exact-mode schedule failed validation: %s", res.Report.Summary())
	}
	return res, nil
}

// diffGreedy solves in with Greedy and with the reference loop, fails on
// any difference in schedule, rounds, validations, report or error, and
// tallies the outcome.
func diffGreedy(t *testing.T, label string, in *dynflow.Instance, opts Options, tally map[string]int) {
	t.Helper()
	opts.Mode = ModeExact
	got, gotErr := Greedy(in, opts)
	want, wantErr := greedyRef(in, opts)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, reference %v", label, gotErr, wantErr)
	}
	switch {
	case gotErr != nil:
		tally["infeasible"]++
		return
	case got.BestEffort:
		tally["best effort"]++
	default:
		tally["clean"]++
	}
	if !reflect.DeepEqual(got.Schedule, want.Schedule) || got.TicksUsed != want.TicksUsed ||
		got.Validations != want.Validations || got.DependencyCycles != want.DependencyCycles || got.BestEffort != want.BestEffort {
		t.Fatalf("%s: schedule %v (%d ticks, %d validations, %d cycles, best effort %v), reference %v (%d, %d, %d, %v)",
			label, got.Schedule, got.TicksUsed, got.Validations, got.DependencyCycles, got.BestEffort,
			want.Schedule, want.TicksUsed, want.Validations, want.DependencyCycles, want.BestEffort)
	}
	if !reflect.DeepEqual(got.Report, want.Report) {
		t.Fatalf("%s: report %s, reference %s", label, got.Report.Summary(), want.Report.Summary())
	}
}

// fuzzSlackInstance builds FuzzScheduleSlack's instance for one input.
func fuzzSlackInstance(seed int64, n, maxDelay uint8) *dynflow.Instance {
	p := topo.DefaultRandomParams(3 + int(n%10))
	p.MaxDelay = 1 + graph.Delay(maxDelay%6)
	return topo.RandomInstance(rand.New(rand.NewSource(seed)), p)
}

// readSlackCorpus parses the checked-in FuzzScheduleSlack inputs.
func readSlackCorpus(t *testing.T) map[string]*dynflow.Instance {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzScheduleSlack", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no FuzzScheduleSlack corpus: %v", err)
	}
	out := make(map[string]*dynflow.Instance, len(files))
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var vals []int64
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n")[1:] {
			arg := line[strings.IndexByte(line, '(')+1 : len(line)-1]
			if strings.HasPrefix(arg, "'") {
				r, _, _, err := strconv.UnquoteChar(arg[1:len(arg)-1], '\'')
				if err != nil {
					t.Fatalf("%s: %v", f, err)
				}
				vals = append(vals, int64(r))
				continue
			}
			v, err := strconv.ParseInt(arg, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", f, err)
			}
			vals = append(vals, v)
		}
		out[filepath.Base(f)] = fuzzSlackInstance(vals[0], uint8(vals[1]), uint8(vals[2]))
	}
	return out
}

// TestGreedyMatchesReference holds the kernel-driven exact engine to the
// per-trial Validate loop: equal Schedule, TicksUsed, Validations and
// Report on the property corpus, the FuzzScheduleSlack corpus, random
// instances of 3 to 40 switches (some best-effort, some with a late
// start) and pods embedded in a sixteen-pod graph.
func TestGreedyMatchesReference(t *testing.T) {
	tally := map[string]int{}
	for seed := int64(0); seed < 150; seed++ {
		in := topo.RandomInstance(rand.New(rand.NewSource(seed)), topo.DefaultRandomParams(4+int(seed%16)))
		diffGreedy(t, fmt.Sprintf("property seed %d", seed), in, Options{}, tally)
	}
	for name, in := range readSlackCorpus(t) {
		diffGreedy(t, "fuzz corpus "+name, in, Options{}, tally)
	}
	draws := 6
	if testing.Short() {
		draws = 2
	}
	for n := 3; n <= 40; n++ {
		for d := 0; d < draws; d++ {
			rng := rand.New(rand.NewSource(int64(n*1000 + d)))
			in := topo.RandomInstance(rng, topo.DefaultRandomParams(n))
			opts := Options{Start: dynflow.Tick(rng.Intn(20)), BestEffort: (n+d)%3 == 0}
			diffGreedy(t, fmt.Sprintf("n=%d draw %d", n, d), in, opts, tally)
		}
	}
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := graph.New()
		for p := 0; p < 16; p++ {
			params := topo.DefaultRandomParams(6 + rng.Intn(9))
			params.Demand = graph.Capacity(1 + rng.Intn(4))
			if rng.Intn(2) == 0 {
				params.TightFraction, params.MaxDelay = 0.25, 3
			}
			on, _ := topo.Embed(g, topo.RandomInstance(rng, params), fmt.Sprintf("p%d.", p))
			diffGreedy(t, fmt.Sprintf("seed %d pod %d", seed, p), on, Options{Start: dynflow.Tick(rng.Intn(5))}, tally)
		}
	}
	if tally["clean"] < 100 || tally["infeasible"] < 20 || tally["best effort"] < 5 {
		t.Fatalf("corpus too small: %v", tally)
	}
	t.Logf("outcomes: %v", tally)
}

// TestGreedyCountsOneValidatorRun: a solve that accepts something runs the
// validator once in full, for its Report, however many trials it checks.
func TestGreedyCountsOneValidatorRun(t *testing.T) {
	in := topo.Fig1Example()
	in.Obs = obs.NewRegistry()
	res, err := Greedy(in, Options{Obs: in.Obs})
	if err != nil {
		t.Fatal(err)
	}
	if got := in.Obs.Counter("chronus_validator_runs_total").Value(); got != 1 {
		t.Errorf("chronus_validator_runs_total = %d, want 1", got)
	}
	if got := in.Obs.Counter("chronus_scheduler_validator_runs_total").Value(); got != int64(res.Validations) {
		t.Errorf("chronus_scheduler_validator_runs_total = %d, want the %d trials", got, res.Validations)
	}
}
