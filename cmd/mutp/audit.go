package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	chronus "github.com/chronus-sdn/chronus"
	"github.com/chronus-sdn/chronus/internal/audit"
	"github.com/chronus-sdn/chronus/internal/journal"
)

// runAudit executes the schedule on the emulated testbed, feeds the
// resulting trace to the consistency auditor and renders its verdict —
// an independent re-check of the congestion- and loop-freedom the
// validator certified analytically, this time over what the switches
// actually did. It also prints the analytic per-switch slack so the
// trace-derived critical path can be compared against the validator's
// view of which activations are timing-critical.
func runAudit(out io.Writer, in *chronus.Instance, s *chronus.Schedule, seed int64, jsonPath string, clocks bool) error {
	tracer, err := executeOnTestbed(in, s, seed)
	if err != nil {
		return err
	}
	a := audit.New()
	a.Feed(tracer.Events(0)...)
	rep := a.Report()
	fmt.Fprintln(out)
	rep.Render(out)
	printSlack(out, in, s)
	if clocks {
		printClocks(out, tracer)
	}
	if jsonPath != "" {
		return writeAuditJSON(rep, jsonPath)
	}
	return nil
}

// auditFromFile audits a previously captured JSONL trace (the output of
// -trace or the chronusd /trace endpoint) offline, with no instance or
// schedule needed. A directory is treated as a chronusd journal
// (-journal-dir): its segments are replayed in order, so a trace that
// outlived the daemon's in-memory ring — or the daemon itself — audits
// exactly like the live /audit endpoint. Captures cut off mid-write are
// common (the writer was killed, the ring was snapshotted live), so a
// torn trailing line is warned about and skipped; corruption anywhere
// earlier, or a capture with no events at all, fails with a diagnosable
// error.
func auditFromFile(out io.Writer, path, jsonPath string) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	if fi.IsDir() {
		return auditFromJournal(out, path, jsonPath)
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	a := audit.New()
	n, warn, err := a.ReadJSONLTolerant(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if warn != "" {
		fmt.Fprintf(out, "warning: %s: %s\n", path, warn)
	}
	if n == 0 {
		return fmt.Errorf("%s: no trace events (empty or fully torn capture)", path)
	}
	rep := a.Report()
	rep.Render(out)
	if jsonPath != "" {
		return writeAuditJSON(rep, jsonPath)
	}
	return nil
}

// auditFromJournal replays a chronusd journal directory — every
// segment, in order — through the auditor, as one batch.
func auditFromJournal(out io.Writer, dir, jsonPath string) error {
	evs, stats, err := journal.ReadAll(dir, 0)
	if err != nil {
		return err
	}
	a := audit.New()
	a.Feed(evs...)
	n := len(evs)
	for _, w := range stats.Warnings {
		fmt.Fprintf(out, "warning: %s\n", w)
	}
	if n == 0 {
		return fmt.Errorf("%s: no trace events (empty or fully torn journal)", dir)
	}
	fmt.Fprintf(out, "journal: %d events from %d segment(s)\n", n, stats.Segments)
	rep := a.Report()
	rep.Render(out)
	if jsonPath != "" {
		return writeAuditJSON(rep, jsonPath)
	}
	return nil
}

func printSlack(out io.Writer, in *chronus.Instance, s *chronus.Schedule) {
	fmt.Fprintln(out, "analytic slack (validator): ticks each activation may slip; * = critical")
	for _, sl := range chronus.ScheduleSlack(in, s) {
		mark := " "
		if sl.Critical {
			mark = "*"
		}
		fmt.Fprintf(out, "%s %-8s tick %-5d slack %d\n", mark, in.G.Name(sl.V), sl.Time, sl.Slack)
	}
}

func writeAuditJSON(rep *audit.Report, path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
