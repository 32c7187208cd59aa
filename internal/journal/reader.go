package journal

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"github.com/chronus-sdn/chronus/internal/obs"
)

// ReadStats summarizes one replay of a journal directory.
type ReadStats struct {
	// Segments is how many segment files were read.
	Segments int
	// Events is how many complete events were decoded (after the since
	// filter the caller asked for).
	Events int
	// Lines is how many complete lines were decoded, the ones the since
	// filter passed over included: what the read cost.
	Lines int
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
// numbering; Writer.Replay reads one run alone.
func Replay(dir string, since uint64, fn func(obs.Event) error) (ReadStats, error) {
	return replay(dir, mark{}, since, nil, fn)
}

// Replay is journal.Replay over this writer's own run: the segments
// from the one Open started on. Earlier runs sharing the directory
// number their events from 1 too, so they are skipped rather than
// filtered by since. Call Flush first to see every recorded event.
//
// The writer indexes the lines it writes, so the read starts at most
// indexEvery lines before the first event past since rather than at
// the run's first line, and Segments counts the segments from there.
func (w *Writer) Replay(since uint64, fn func(obs.Event) error) (ReadStats, error) {
	return replay(w.opts.Dir, w.seek(since), since, nil, fn)
}

// replay is Replay from the line at from: the segments numbered from.seg
// or later, the first of them from byte from.off. The before hook sees
// each segment file, before it is decoded, and must leave it positioned
// at its start.
func replay(dir string, from mark, since uint64, before func(*os.File) error, fn func(obs.Event) error) (ReadStats, error) {
	var stats ReadStats
	segs, err := Segments(dir)
	if err != nil {
		return stats, err
	}
	var lastSeq uint64
	warnedRegress := false
	for _, seg := range segs {
		n, _ := segmentIndex(filepath.Base(seg))
		if n < from.seg {
			continue
		}
		var off int64
		if n == from.seg {
			off = from.off
		}
		stats.Segments++
		if err := replaySegment(seg, off, &stats, before, func(e obs.Event) error {
			stats.Lines++
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

// ReadAll replays the journal into a slice. Before each segment is
// decoded its lines are counted, and the slice grown once to hold that
// many more events, instead of doubling as they arrive.
func ReadAll(dir string, since uint64) ([]obs.Event, ReadStats, error) {
	var out []obs.Event
	buf := make([]byte, 64<<10)
	stats, err := replay(dir, mark{}, since, func(f *os.File) error {
		n, err := countLines(f, buf)
		out = slices.Grow(out, n)
		return err
	}, func(e obs.Event) error {
		out = append(out, e)
		return nil
	})
	return out, stats, err
}

// countLines counts the lines of f, a final one without its newline
// included, reading through buf, and seeks f back to its start.
func countLines(f *os.File, buf []byte) (int, error) {
	n := 1
	for {
		k, err := f.Read(buf)
		n += bytes.Count(buf[:k], []byte{'\n'})
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
	}
	_, err := f.Seek(0, io.SeekStart)
	return n, err
}

// replaySegment reads one segment file from byte off through the shared
// line reader, with the torn-tail tolerance described on Replay, after
// the before hook when there is one.
func replaySegment(path string, off int64, stats *ReadStats, before func(*os.File) error, fn func(obs.Event) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if before != nil {
		if err := before(f); err != nil {
			return fmt.Errorf("journal: %s: %w", path, err)
		}
	}
	if off > 0 {
		if _, err := f.Seek(off, io.SeekStart); err != nil {
			return fmt.Errorf("journal: %s: %w", path, err)
		}
	}
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
