package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sort"
	"testing"
)

// TestMain lets the test binary stand in for the bench binary: run()
// re-executes os.Executable() with --child for every round.
func TestMain(m *testing.M) {
	for _, a := range os.Args[1:] {
		if a == "--child" {
			main()
			return
		}
	}
	os.Exit(m.Run())
}

func TestPerOpMin(t *testing.T) {
	got := perOpMin([][]float64{{5, 2, 9}, {4, 3, 9}, {6, 1, 8}})
	want := []float64{4, 1, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("perOpMin = %v, want %v", got, want)
		}
	}
	if perOpMin(nil) != nil {
		t.Fatal("perOpMin(nil) != nil")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // 200..1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 100}, {95, 190}, {99, 198}, {100, 200}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..200, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// latency_p95_ms is reported only with ten samples beyond it.
func TestEveryWorkloadHasTenSamplesBeyondP95(t *testing.T) {
	for _, spec := range workloadSpecs {
		if beyond := spec.ops - int(math.Ceil(0.95*float64(spec.ops))); beyond < tailSamples {
			t.Errorf("%s: %d ops leave %d samples beyond latency_p95_ms, want %d", spec.name, spec.ops, beyond, tailSamples)
		}
	}
}

// iqrShare must agree with Python's statistics.quantiles(xs, n=4), which
// the acceptance rule is computed with.
func TestIQRShareMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) = [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 10, 4, 2, 9, 3, 8, 5, 6}
	if got, want := iqrShare(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
	// statistics.quantiles([10, 12, 11, 30], n=4) = [10.25, 11.5, 25.5]
	if got, want := iqrShare([]float64{10, 12, 11, 30}), (25.5-10.25)/11.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
}

func TestSelfTimes(t *testing.T) {
	r := newRecorder(true)
	r.op = 3
	r.spans = []span{
		{Name: "op", Op: 3, ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "controller.execute", Op: 3, ID: 1, Parent: 0, Start: 10, End: 60},
		{Name: "journal.flush", Op: 3, ID: 2, Parent: 1, Start: 20, End: 30},
		{Name: "audit.fold", Op: 3, ID: 3, Parent: 0, Start: 60, End: 90},
	}
	got := r.selfTimes(3)
	want := map[string]int64{"bench.other": 20, "controller.execute": 40, "journal.flush": 10, "audit.fold": 30}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self[%s] = %d, want %d (all: %v)", k, got[k], v, got)
		}
	}
	var total int64
	for _, v := range got {
		total += v
	}
	if total != 100 {
		t.Errorf("self times sum to %d, want the op's 100", total)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{name: "latency_p50_ms", better: "lower", bound: 0.10}
	higher := metricDef{name: "ops_per_s", better: "higher", bound: 0.10}
	steady := func(c float64) []float64 { return []float64{c * 0.99, c, c, c * 1.01, c} }
	for _, c := range []struct {
		name       string
		d          metricDef
		base, cand []float64
		want       string
	}{
		{"same", lower, steady(10), steady(10), "ok"},
		{"slower within bound", lower, steady(10), steady(10.9), "ok"},
		{"slower beyond bound", lower, steady(10), steady(11.5), "worse"},
		{"faster", lower, steady(10), steady(5), "ok"},
		{"throughput down beyond bound", higher, steady(100), steady(85), "worse"},
		{"throughput up", higher, steady(100), steady(130), "ok"},
		{"noisy base", lower, []float64{8, 9, 10, 12, 14}, steady(20), "unresolved"},
		{"single runs", lower, []float64{10}, []float64{12}, "worse"},
	} {
		if got, _, _ := verdict(c.d, c.base, c.cand); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// BENCHMARK.json and the tables this package reports from must name the
// same workloads, metrics, units, directions and bounds, within the
// limits the benchmark contract sets.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", b.RunSeconds)
	}
	if len(b.Workloads) != len(workloadSpecs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloadSpecs", len(b.Workloads), len(workloadSpecs))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for i, w := range b.Workloads {
		checkName(w.Name)
		if w.Name != workloadSpecs[i].name || w.Why != workloadSpecs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, workloadSpecs %q / %q",
				i, w.Name, w.Why, workloadSpecs[i].name, workloadSpecs[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the table", kind, len(got), len(want))
		}
		for i, m := range got {
			checkName(m.Name)
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %s/%s/%s, the table %s/%s/%s",
					kind, i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
			}
			if !unit.MatchString(m.Unit) {
				t.Errorf("%s: unit %q is outside the contract's alphabet or length", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound != d.bound || d.bound <= 0 || d.bound > 0.25):
				t.Errorf("%s: bound %v, table %v, allowed (0, 0.25]", m.Name, m.Bound, d.bound)
			case !bounded && m.Bound != nil:
				t.Errorf("%s: per-layer metrics carry no bound", m.Name)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
	if len(b.PerLayer) > 128 || len(b.EndToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics, limits 16 and 128", len(b.EndToEnd), len(b.PerLayer))
	}
	var setup metricDef
	for _, d := range endToEnd {
		if d.name == "setup_s" {
			setup = d
		}
	}
	if setup.unit != "s" || setup.better != "lower" {
		t.Error("end_to_end must hold setup_s, unit s, better lower")
	}
	for _, d := range endToEnd {
		if d.bound > setup.bound {
			t.Errorf("%s has a larger bound than setup_s, which the contract gives the largest", d.name)
		}
	}
	for metric, spanName := range layerSpans {
		if !seen[metric] {
			t.Errorf("layerSpans maps %s (%s), which BENCHMARK.json does not declare", metric, spanName)
		}
	}
}

// The smoke pass: five ops and two rounds of every workload, timed and
// traced. Every run must verify its outputs, repeat its counts and
// report exactly the declared metric names.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	out := t.TempDir()
	for _, spec := range workloadSpecs {
		for _, traced := range []bool{false, true} {
			res, err := run(runOptions{spec: spec, seed: 20170605, ops: 5, rounds: 2, traced: traced, outDir: out})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", spec.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted != 10 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %v",
					spec.name, traced, res.Correct, res.Attempted, res.Failed, res.problems)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			var got, want []string
			for n := range res.Metrics {
				got = append(got, n)
			}
			for _, d := range defs {
				want = append(want, d.name)
				if m, ok := res.Metrics[d.name]; ok && (m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0)) {
					t.Errorf("%s: %s = %v %s, want a finite value in %s", spec.name, d.name, m.Value, m.Unit, d.unit)
				}
			}
			sort.Strings(got)
			sort.Strings(want)
			if len(got) != len(want) {
				t.Fatalf("%s traced=%v: reported %v, declared %v", spec.name, traced, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s traced=%v: reported %v, declared %v", spec.name, traced, got, want)
				}
			}
			if !traced {
				for _, d := range endToEnd {
					if res.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", spec.name, d.name, res.Metrics[d.name].Value)
					}
				}
			}
			// The JSON form is the contract's result line: four keys.
			raw, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(raw, &keys); err != nil {
				t.Fatal(err)
			}
			if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
				t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", keys)
			}
		}
	}
	if _, err := os.Stat(out + "/trace-exec-timed.jsonl"); err != nil {
		t.Errorf("traced round left no span file: %v", err)
	}
}
