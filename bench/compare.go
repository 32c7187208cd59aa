package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// resultSet is the labelled results of one file: any number of runs,
// typically one per seed for every workload.
type resultSet struct {
	path string
	runs []labelledResult
}

func loadResults(path string) (resultSet, error) {
	set := resultSet{path: path}
	f, err := os.Open(path)
	if err != nil {
		return set, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r labelledResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return set, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		set.runs = append(set.runs, r)
	}
	return set, sc.Err()
}

// values returns the set's values of one metric on one workload, and
// the same keyed by seed.
func (s resultSet) values(workload string, trace int, metric string) ([]float64, map[int64]float64) {
	var vs []float64
	bySeed := map[int64]float64{}
	for _, r := range s.runs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == trace {
			vs = append(vs, m.Value)
			bySeed[r.Seed] = m.Value
		}
	}
	return vs, bySeed
}

// minSpreadRuns is how many runs a set needs before its quartiles say
// anything about its spread.
const minSpreadRuns = 4

// verdict applies an end-to-end metric's bound to two sets of values:
// "unresolved" when either set's own spread is wider than the bound
// (the comparison cannot tell a change from the weather), "worse" when
// the candidate's median is worse than the base's by more than the
// bound, "ok" otherwise. worseBy is signed: positive means worse.
func verdict(d metricDef, base, cand []float64) (v string, worseBy, spread float64) {
	b, c := median(base), median(cand)
	if b != 0 {
		worseBy = (c - b) / b
		if d.better == "higher" {
			worseBy = -worseBy
		}
	}
	for _, set := range [][]float64{base, cand} {
		if len(set) >= minSpreadRuns {
			if s := iqrShare(set); s > spread {
				spread = s
			}
		}
	}
	switch {
	case spread > d.bound:
		v = "unresolved"
	case worseBy > d.bound:
		v = "worse"
	default:
		v = "ok"
	}
	return v, worseBy, spread
}

// compare prints one row per workload and end-to-end metric for cand
// against base, and one per count-valued per-layer metric, which must
// be equal seed by seed. It reports whether any row is worse or differs.
func compare(w io.Writer, base, cand resultSet) (bad bool) {
	fmt.Fprintf(w, "%s -> %s\n", base.path, cand.path)
	fmt.Fprintf(w, "%-12s %-28s %14s %14s %9s %8s %7s  %s\n",
		"workload", "metric", "base", "candidate", "worse by", "spread", "bound", "verdict")
	for _, spec := range workloadSpecs {
		for _, d := range endToEnd {
			b, _ := base.values(spec.name, 0, d.name)
			c, _ := cand.values(spec.name, 0, d.name)
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			v, worseBy, spread := verdict(d, b, c)
			bad = bad || v == "worse"
			fmt.Fprintf(w, "%-12s %-28s %14.4f %14.4f %+8.1f%% %7.1f%% %6.0f%%  %s\n",
				spec.name, d.name, median(b), median(c), 100*worseBy, 100*spread, 100*d.bound, v)
		}
		for _, d := range perLayer {
			if d.unit != "count" {
				continue
			}
			_, b := base.values(spec.name, 1, d.name)
			_, c := cand.values(spec.name, 1, d.name)
			shared, differ := 0, 0
			for seed, bv := range b {
				if cv, ok := c[seed]; ok {
					shared++
					if cv != bv {
						differ++
					}
				}
			}
			if differ > 0 {
				bad = true
				fmt.Fprintf(w, "%-12s %-28s differs on %d of %d shared seeds\n", spec.name, d.name, differ, shared)
			}
		}
	}
	return bad
}

// compareMain is `bench compare BASE.json CANDIDATE.json [more...]`:
// every further file is compared against the first.
func compareMain(args []string) int {
	if len(args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare BASE.json CANDIDATE.json [CANDIDATE.json...]")
		return 2
	}
	sets := make([]resultSet, len(args))
	for i, path := range args {
		var err error
		if sets[i], err = loadResults(path); err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			return 2
		}
	}
	bad := false
	for _, cand := range sets[1:] {
		if compare(os.Stdout, sets[0], cand) {
			bad = true
		}
	}
	if bad {
		return 1
	}
	return 0
}
