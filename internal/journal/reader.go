package journal

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/chronus-sdn/chronus/internal/obs"
)

// ReadStats summarizes one replay of a journal directory.
type ReadStats struct {
	// Segments is how many segment files were read.
	Segments int
	// Events is how many complete events were decoded (after the since
	// filter the caller asked for).
	Events int
	// Torn counts torn trailing lines that were skipped — the partial
	// record a crash mid-append leaves behind, at most one per segment.
	Torn int
	// Warnings carries one human-readable line per tolerated anomaly
	// (torn tails, sequence regressions between runs sharing a dir).
	Warnings []string
}

// Replay streams every complete event with Seq > since, in segment
// order, through fn; fn returning an error aborts the replay with that
// error (wrapped with the segment path). The reader applies the same tolerance contract as
// `mutp -audit-from`: a malformed final line of a segment that is
// missing its terminating newline is a torn mid-write tail — it is
// counted, warned about and skipped — while corruption anywhere
// earlier (a malformed line that IS newline-terminated, or one
// followed by more data) fails with a segment- and line-numbered
// error, because nothing after a corrupt record can be trusted to be
// aligned.
//
// The since cursor is monotonically resumable: replaying with the Seq
// of the last event a previous replay returned yields exactly the
// events appended after it, with no duplicates. A sequence number that
// regresses mid-journal (two daemon runs sharing one directory) is
// warned about, since the cursor only filters within one run's
// numbering.
func Replay(dir string, since uint64, fn func(obs.Event) error) (ReadStats, error) {
	var stats ReadStats
	segs, err := Segments(dir)
	if err != nil {
		return stats, err
	}
	var lastSeq uint64
	warnedRegress := false
	for _, seg := range segs {
		stats.Segments++
		if err := replaySegment(seg, &stats, func(e obs.Event) error {
			if e.Seq < lastSeq && !warnedRegress {
				stats.Warnings = append(stats.Warnings, fmt.Sprintf(
					"%s: sequence regressed from %d to %d (multiple runs in one journal dir?)",
					filepath.Base(seg), lastSeq, e.Seq))
				warnedRegress = true
			}
			lastSeq = e.Seq
			if e.Seq <= since {
				return nil
			}
			stats.Events++
			return fn(e)
		}); err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// ReadAll replays the journal into a slice.
func ReadAll(dir string, since uint64) ([]obs.Event, ReadStats, error) {
	var out []obs.Event
	stats, err := Replay(dir, since, func(e obs.Event) error {
		out = append(out, e)
		return nil
	})
	return out, stats, err
}

// replaySegment reads one segment file through the shared line reader,
// with the torn-tail tolerance described on Replay.
func replaySegment(path string, stats *ReadStats, fn func(obs.Event) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	torn, err := obs.ReadJSONL(f, true, fn)
	if err != nil {
		return fmt.Errorf("journal: %s: %w", path, err)
	}
	if torn != "" {
		stats.Torn++
		stats.Warnings = append(stats.Warnings, filepath.Base(path)+": "+torn)
	}
	return nil
}
