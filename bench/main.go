// Command bench is this repository's benchmark of the executed-update
// path. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	workload := fs.String("workload", "", "workload to run (default: all four, timed and traced)")
	seed := fs.Int64("seed", 20170605, "seed the op list is generated from")
	seconds := fs.Float64("seconds", 32, "how long one run keeps starting rounds")
	trace := fs.Int("trace", 0, "1: traced rounds, per-layer metrics; 0: end-to-end metrics")
	ops := fs.Int("ops", 0, "ops per round (0 = the workload's default)")
	smoke := fs.Bool("smoke", false, "5 ops, 2 rounds: a quick pass over the whole harness")
	child := fs.Bool("child", false, "run one round in this process and print it as JSON (internal)")
	outDir := fs.String("out", defaultOutDir(), "directory for trace files and scratch data")
	result := fs.String("result", "", "append each run's labelled result to this file (input of compare)")
	_ = fs.Parse(os.Args[1:])

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	if *child {
		spec, ok := findWorkload(*workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		n := *ops
		if n <= 0 {
			n = spec.ops
		}
		if err := runRound(spec, *seed, n, *trace == 1, *outDir, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	o := runOptions{seed: *seed, seconds: *seconds, traced: *trace == 1, ops: *ops, outDir: *outDir}
	if *smoke {
		o.ops, o.rounds = 5, 2
	}
	// measure runs o and prints its table, by name with units, to table.
	measure := func(o runOptions, table *os.File) *runResult {
		res, err := run(o)
		if err != nil {
			fatal(err)
		}
		res.print(table)
		if *result != "" {
			if err := res.appendTo(*result); err != nil {
				fatal(err)
			}
		}
		return res
	}
	correct := true
	if *workload != "" {
		spec, ok := findWorkload(*workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		o.spec = spec
		res := measure(o, os.Stderr)
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fatal(err)
		}
		correct = res.Correct
	} else {
		// No workload named: every workload, end-to-end then per-layer.
		for _, spec := range workloadSpecs {
			for _, traced := range []bool{false, true} {
				o.spec, o.traced = spec, traced
				correct = measure(o, os.Stdout).Correct && correct
			}
		}
	}
	if !correct {
		os.Exit(1)
	}
}

// defaultOutDir is bench/out beside run.sh's bench/.build, wherever the
// benchmark is started from.
func defaultOutDir() string {
	self, err := os.Executable()
	if err != nil {
		return "out"
	}
	return filepath.Join(filepath.Dir(filepath.Dir(self)), "out")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
