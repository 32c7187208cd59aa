package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSubset(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-run", "tab2,fig9", "-csv", dir}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table II", "Fig. 9", "savings_pct"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "Fig. 6") {
		t.Fatal("unselected experiment ran")
	}
	for _, f := range []string{"table2_source.csv", "fig9.csv"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("missing CSV %s: %v", f, err)
		}
	}
}

func TestRunBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-definitely-not-a-flag"}, &buf); err == nil {
		t.Fatal("bad flag accepted")
	}
}

// The acceptance bar of the parallel harness: for a fixed seed, -procs 1
// and -procs 8 must write byte-identical CSVs. Wall-clock tables (fig10,
// the acceptance-mode ablation) are covered by the determinism tests in
// internal/expt, which compare their deterministic columns.
func TestRunProcsByteIdenticalCSVs(t *testing.T) {
	figs := "fig6,fig7,fig8,fig9,fig11"
	serialDir, parallelDir := t.TempDir(), t.TempDir()
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-seed", "7", "-procs", "1", "-run", figs, "-csv", serialDir}, &buf); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-quick", "-seed", "7", "-procs", "8", "-run", figs, "-csv", parallelDir}, &buf); err != nil {
		t.Fatal(err)
	}
	names, err := os.ReadDir(serialDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal("no CSVs written")
	}
	for _, e := range names {
		serial, err := os.ReadFile(filepath.Join(serialDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := os.ReadFile(filepath.Join(parallelDir, e.Name()))
		if err != nil {
			t.Fatalf("missing parallel CSV %s: %v", e.Name(), err)
		}
		if !bytes.Equal(serial, parallel) {
			t.Errorf("%s differs between -procs 1 and -procs 8:\n--- procs=1:\n%s\n--- procs=8:\n%s", e.Name(), serial, parallel)
		}
	}
}

func TestRunBenchJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-run", "fig7", "-bench-json", path}, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Seed        int64                                  `json:"seed"`
		Quick       bool                                   `json:"quick"`
		Experiments map[string]float64                     `json:"experiments"`
		Tables      map[string]struct{ Columns, Rows int } `json:"tables"`
		Audit       struct{ Checks, Agree int }            `json:"audit"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	if !bench.Quick || bench.Seed != 1 {
		t.Fatalf("bench = %+v", bench)
	}
	if bench.Experiments["fig7+fig8"] <= 0 {
		t.Fatalf("no wall time recorded: %+v", bench.Experiments)
	}
	if tb := bench.Tables["fig7"]; tb.Rows == 0 || tb.Columns == 0 {
		t.Fatalf("fig7 table shape missing: %+v", bench.Tables)
	}
	if bench.Audit.Checks == 0 || bench.Audit.Agree != bench.Audit.Checks {
		t.Fatalf("audit tally = %+v, want full validator/auditor agreement", bench.Audit)
	}
}

func TestVersionFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-version"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "experiments ") {
		t.Fatalf("version output = %q", buf.String())
	}
}
