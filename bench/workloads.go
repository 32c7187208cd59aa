package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"sort"

	chronus "github.com/chronus-sdn/chronus"
)

// workload is one fixed op list. A round calls setup once, run for every
// op index in order, then close.
type workload interface {
	// setup generates the corpus of n ops from seed (and whatever the
	// ops need besides: topologies, a journal to replay). Instance
	// generation goes under rec's "topo.corpus_gen" layer.
	setup(seed int64, n int, rec *recorder) error
	// run executes op i: an untimed boot where the op needs one, then
	// the timed section between rec.begin and rec.end. Index n, one past
	// the op list, is the warm-up op.
	run(i int, rec *recorder) opSample
	// fingerprint hashes the generated corpus, so two rounds (or two
	// checkouts) can tell they measured the same inputs.
	fingerprint() string
	// events returns trace events the round recorded, for the tracer
	// emit probes.
	events() []chronus.TraceEvent
	close() error
}

// workloadSpec names a workload, its default op count and why it exists.
// BENCHMARK.json repeats name and why; the test suite holds the two
// lists equal.
type workloadSpec struct {
	name string
	ops  int
	why  string
	new  func(outDir string) workload
}

var workloadSpecs = []workloadSpec{
	{"exec-timed", 200,
		"the daemon's default update on unique 10-switch instances: slack certification is >=85% of the op, so validator, slack and greedy changes show here",
		func(string) workload { return &execTimed{} }},
	{"exec-paced", 600,
		"two-phase updates over loopback TCP with a journal sink: no solve or certification, so controller, ofp, switchd, emu, tracer emit and journal writes do the work",
		func(out string) workload { return &execPaced{outDir: out} }},
	{"admit-churn", 200,
		"bursts of 8 plan-only tenant updates on 16 repeating pods: admission waves, ledger, joint validation and warm scheme caches, which exec-timed never hits",
		func(string) workload { return &admitChurn{} }},
	{"replay-fold", 200,
		"offline replay of a journaled run: journal reads and the folds as readers, where exec-paced uses them as writers, so a codec change that trades one for the other shows",
		func(out string) workload { return &replayFold{outDir: out} }},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, s := range workloadSpecs {
		if s.name == name {
			return s, true
		}
	}
	return workloadSpec{}, false
}

// corpusHash accumulates a corpus fingerprint from generated instances.
type corpusHash struct{ h hash.Hash }

func newCorpusHash() *corpusHash { return &corpusHash{h: sha256.New()} }

func (c *corpusHash) add(in *chronus.Instance) {
	fmt.Fprintf(c.h, "n=%d d=%d init=%v fin=%v;", in.G.NumNodes(), in.Demand, in.Init, in.Fin)
	links := in.G.Links()
	sort.Slice(links, func(i, j int) bool {
		if links[i].From != links[j].From {
			return links[i].From < links[j].From
		}
		return links[i].To < links[j].To
	})
	for _, l := range links {
		fmt.Fprintf(c.h, "%d>%d:%d/%d,", l.From, l.To, l.Cap, l.Delay)
	}
}

func (c *corpusHash) sum() string { return hex.EncodeToString(c.h.Sum(nil))[:16] }

// feasibleInstances draws paper-default random instances on n switches
// until count of them have a clean chronus schedule and pass accept,
// which is told how many switches the schedule updates (nil accepts
// all). Infeasible draws — the paper's delay-diverse instances that no
// schedule can migrate — are filtered out here so that no op fails by
// construction.
func feasibleInstances(rng *rand.Rand, n, count int, accept func(updates int) bool) []*chronus.Instance {
	p := chronus.DefaultRandomInstanceParams(n)
	out := make([]*chronus.Instance, 0, count)
	for len(out) < count {
		in := chronus.RandomInstance(rng, p)
		res, err := chronus.SolveWith("chronus", in, chronus.SchemeOptions{NoCache: true})
		if err != nil || res.Schedule == nil {
			continue
		}
		report := res.Report
		if report == nil {
			report = chronus.Validate(in, res.Schedule)
		}
		if report.OK() && (accept == nil || accept(len(res.Schedule.Times))) {
			out = append(out, in)
		}
	}
	return out
}

// registryCounters maps the short keys ops report their tallies under
// to the registry counters each one sums.
var registryCounters = map[string][]string{
	"sched_validations": {"chronus_scheduler_validator_runs_total"},
	"validate_runs":     {"chronus_validator_runs_total"},
	"validate_traces":   {"chronus_validator_traces_total"},
	"flowmods":          {"chronus_controller_flowmods_sent_total"},
	"barriers":          {"chronus_controller_barriers_total"},
	"ofp_msgs_sent":     {`chronus_ofp_messages_total{dir="sent"}`},
	"ofp_bytes_sent":    {`chronus_ofp_bytes_total{dir="sent"}`},
	"ofp_msgs_recv":     {`chronus_ofp_messages_total{dir="received"}`},
	"ofp_bytes_recv":    {`chronus_ofp_bytes_total{dir="received"}`},
	"journal_appended":  {"chronus_journal_appended_total"},
	"journal_bytes":     {"chronus_journal_bytes"},
	"journal_dropped":   {"chronus_journal_dropped_total"},
	"ledger_overcommit": {"chronus_admit_ledger_overcommit_total"},
	"cache_hits": {
		`chronus_solver_cache_hits_total{cache="tracer"}`,
		`chronus_solver_cache_hits_total{cache="precomp"}`,
		`chronus_solver_cache_hits_total{cache="plan"}`,
	},
	"cache_misses": {
		`chronus_solver_cache_misses_total{cache="tracer"}`,
		`chronus_solver_cache_misses_total{cache="precomp"}`,
		`chronus_solver_cache_misses_total{cache="plan"}`,
	},
}

// registryCounts reads registryCounters off reg.
func registryCounts(reg *chronus.MetricsRegistry) map[string]int64 {
	out := make(map[string]int64, len(registryCounters))
	for key, names := range registryCounters {
		for _, name := range names {
			out[key] += reg.Counter(name).Value()
		}
	}
	return out
}

// addDeltas stores now - base into counts, key by key.
func addDeltas(counts, now, base map[string]int64) {
	for key, v := range now {
		counts[key] = v - base[key]
	}
}

// remapPath re-roots a path of a pod's own graph into a merged one.
func remapPath(p chronus.Path, remap []chronus.NodeID) chronus.Path {
	out := make(chronus.Path, len(p))
	for i, id := range p {
		out[i] = remap[id]
	}
	return out
}
