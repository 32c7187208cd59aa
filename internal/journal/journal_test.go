package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/chronus-sdn/chronus/internal/obs"
)

func event(seq int) obs.Event {
	return obs.Event{
		Seq: uint64(seq), VT: int64(seq * 10), Name: "test",
		Attrs: []obs.Attr{{K: "i", V: fmt.Sprint(seq)}},
	}
}

func mustOpen(t *testing.T, o Options) *Writer {
	t.Helper()
	w, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	w := mustOpen(t, Options{Dir: dir, Obs: reg})
	const n = 100
	for i := 1; i <= n; i++ {
		w.Record(event(i))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	evs, stats, err := ReadAll(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != n || stats.Events != n || stats.Torn != 0 {
		t.Fatalf("read %d events (stats %+v), want %d", len(evs), stats, n)
	}
	for i, e := range evs {
		if e.Seq != uint64(i+1) || e.Name != "test" {
			t.Fatalf("event %d = %+v", i, e)
		}
	}
	if got := reg.Counter("chronus_journal_appended_total").Value(); got != n {
		t.Fatalf("appended_total = %d, want %d", got, n)
	}
	if got := reg.Counter("chronus_journal_dropped_total").Value(); got != 0 {
		t.Fatalf("dropped_total = %d, want 0", got)
	}
	if got := reg.Counter("chronus_journal_bytes").Value(); got <= 0 {
		t.Fatalf("journal_bytes = %d, want > 0", got)
	}
}

// TestJournalMatchesTracerExport pins the codec-unification contract: a
// journal capture and Tracer.WriteJSONL over the same events are
// byte-identical — one serializer, zero drift.
func TestJournalMatchesTracerExport(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, Options{Dir: dir})
	tracer := obs.NewTracer(obs.TracerOptions{Sink: w})
	for i := 0; i < 50; i++ {
		tracer.Point(int64(i), "ev", obs.A("i", i))
	}
	tracer.Span("window", 5, 25, obs.A("why", "test"))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := Segments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v, %v", segs, err)
	}
	journalBytes, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	var export strings.Builder
	if err := tracer.WriteJSONL(&export, 0); err != nil {
		t.Fatal(err)
	}
	if export.String() != string(journalBytes) {
		t.Fatalf("journal bytes differ from tracer export:\n--- journal ---\n%s--- export ---\n%s", journalBytes, export.String())
	}
}

func TestJournalRotationAndResume(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force many rotations.
	w := mustOpen(t, Options{Dir: dir, SegmentBytes: 256})
	const n = 200
	for i := 1; i <= n; i++ {
		w.Record(event(i))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 4 {
		t.Fatalf("only %d segments; rotation did not trigger", len(segs))
	}

	evs, _, err := ReadAll(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != n {
		t.Fatalf("read %d events across segments, want %d", len(evs), n)
	}

	// Resume from a mid-journal cursor: no duplicates, no gaps.
	cursor := evs[119].Seq
	rest, stats, err := ReadAll(dir, cursor)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != n-120 {
		t.Fatalf("resume from %d returned %d events, want %d", cursor, len(rest), n-120)
	}
	if rest[0].Seq != cursor+1 {
		t.Fatalf("resume started at seq %d, want %d", rest[0].Seq, cursor+1)
	}
	if stats.Events != len(rest) {
		t.Fatalf("stats.Events = %d, want %d", stats.Events, len(rest))
	}

	// A writer re-opened over the same dir continues the numbering
	// instead of clobbering existing segments.
	w2 := mustOpen(t, Options{Dir: dir, SegmentBytes: 256})
	w2.Record(event(n + 1))
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	segs2, _ := Segments(dir)
	if len(segs2) != len(segs)+1 {
		t.Fatalf("reopen wrote %d segments, want %d", len(segs2), len(segs)+1)
	}
	all, _, err := ReadAll(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != n+1 || all[n].Seq != uint64(n+1) {
		t.Fatalf("after reopen read %d events, last seq %d", len(all), all[len(all)-1].Seq)
	}
}

// TestJournalTornTailProperty is the crash-safety property test: for
// EVERY truncation point inside the final record (the shape any torn
// write can take), the reader recovers every complete record before it,
// loses at most that one partial record, and reports the tear.
func TestJournalTornTailProperty(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, Options{Dir: dir})
	const n = 10
	for i := 1; i <= n; i++ {
		w.Record(event(i))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := Segments(dir)
	if len(segs) != 1 {
		t.Fatalf("segments = %v", segs)
	}
	whole, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(whole), "\n"), "\n")
	if len(lines) != n {
		t.Fatalf("wrote %d lines, want %d", len(lines), n)
	}
	lastStart := len(whole) - len(lines[n-1]) - 1 // lines[n-1] lost its newline to TrimSuffix

	for cut := lastStart + 1; cut < len(whole); cut++ {
		tdir := t.TempDir()
		torn := filepath.Join(tdir, filepath.Base(segs[0]))
		if err := os.WriteFile(torn, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		evs, stats, err := ReadAll(tdir, 0)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		// Every complete record must be recovered; at most the one
		// partial record may be lost. (A cut that strips only the final
		// newline leaves the last record parseable, so nothing is lost
		// and nothing is torn.)
		if len(evs) < n-1 || len(evs) > n {
			t.Fatalf("cut %d: recovered %d events, want %d or %d", cut, len(evs), n-1, n)
		}
		for i, e := range evs {
			if e.Seq != uint64(i+1) {
				t.Fatalf("cut %d: event %d has seq %d", cut, i, e.Seq)
			}
		}
		if lost := n - len(evs); stats.Torn != lost {
			t.Fatalf("cut %d: stats.Torn = %d, want %d (warnings %v)", cut, stats.Torn, lost, stats.Warnings)
		}
	}

	// Truncating exactly at a record boundary is not a tear at all.
	tdir := t.TempDir()
	if err := os.WriteFile(filepath.Join(tdir, filepath.Base(segs[0])), whole[:lastStart], 0o644); err != nil {
		t.Fatal(err)
	}
	evs, stats, err := ReadAll(tdir, 0)
	if err != nil || len(evs) != n-1 || stats.Torn != 0 {
		t.Fatalf("boundary cut: %d events, stats %+v, err %v", len(evs), stats, err)
	}
}

// TestJournalMidFileCorruptionFails: a malformed line that is newline-
// terminated (i.e. not a torn tail) poisons everything after it and
// must fail loudly, exactly like mutp -audit-from on a single capture.
func TestJournalMidFileCorruptionFails(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, Options{Dir: dir})
	for i := 1; i <= 5; i++ {
		w.Record(event(i))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := Segments(dir)
	data, _ := os.ReadFile(segs[0])
	lines := strings.SplitAfter(string(data), "\n")
	corrupt := strings.Join(append(lines[:2], append([]string{"{torn garbage\n"}, lines[2:]...)...), "")
	if err := os.WriteFile(segs[0], []byte(corrupt), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadAll(dir, 0); err == nil {
		t.Fatal("mid-file corruption did not fail the replay")
	}
}

// TestJournalTornMidSegment: a torn tail in a NON-final segment (crash,
// then a later run appended a new segment to the same dir) is tolerated
// with a warning, so a restarted daemon's journal stays replayable.
func TestJournalTornMidSegment(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, Options{Dir: dir})
	for i := 1; i <= 5; i++ {
		w.Record(event(i))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := Segments(dir)
	data, _ := os.ReadFile(segs[0])
	if err := os.WriteFile(segs[0], data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	w2 := mustOpen(t, Options{Dir: dir})
	for i := 6; i <= 8; i++ {
		w2.Record(event(i))
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	evs, stats, err := ReadAll(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 7 || stats.Torn != 1 {
		t.Fatalf("read %d events, stats %+v; want 7 events and 1 torn tail", len(evs), stats)
	}
}

// TestJournalBufferOverflowDropsWithoutBlocking floods a writer whose
// drain goroutine is effectively stalled behind a tiny buffer; Record
// must return immediately, and every overflowed event must be counted.
func TestJournalBufferOverflowDropsWithoutBlocking(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	w := mustOpen(t, Options{Dir: dir, Buffer: 1, Obs: reg})
	const n = 5000
	for i := 1; i <= n; i++ {
		w.Record(event(i)) // never blocks, whatever the drain pace
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	appended := reg.Counter("chronus_journal_appended_total").Value()
	dropped := reg.Counter("chronus_journal_dropped_total").Value()
	if appended+dropped != n {
		t.Fatalf("appended %d + dropped %d != %d recorded", appended, dropped, n)
	}
	evs, _, err := ReadAll(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(evs)) != appended {
		t.Fatalf("journal holds %d events, appended counter says %d", len(evs), appended)
	}
}

func TestParseFsync(t *testing.T) {
	for in, want := range map[string]Fsync{"": FsyncRotate, "rotate": FsyncRotate, "never": FsyncNever, "always": FsyncAlways} {
		got, err := ParseFsync(in)
		if err != nil || got != want {
			t.Fatalf("ParseFsync(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseFsync("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
}

func TestJournalFsyncAlways(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, Options{Dir: dir, Fsync: FsyncAlways})
	w.Record(event(1))
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Flushed and synced: the segment is complete on disk before Close.
	evs, _, err := ReadAll(dir, 0)
	if err != nil || len(evs) != 1 {
		t.Fatalf("after flush: %d events, %v", len(evs), err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// refJournal is the per-event reference writer: it appends each event's
// line to the current segment with a write of its own and rotates after
// the record that brings the segment to segBytes or past it. It returns
// the segment files it would leave (base name → bytes) and the bytes it
// wrote; the Writer must leave the same files however it batches.
func refJournal(events []obs.Event, segBytes int64, firstSeg int) (map[string][]byte, int64) {
	files := make(map[string][]byte)
	var cur string
	var total int64
	idx := firstSeg
	for _, e := range events {
		line, _ := obs.EncodeJSONLine(nil, e)
		if cur == "" {
			cur = fmt.Sprintf("%s%06d%s", segPrefix, idx, segSuffix)
		}
		files[cur] = append(files[cur], line...)
		total += int64(len(line))
		if int64(len(files[cur])) >= segBytes {
			cur = ""
			idx++
		}
	}
	return files, total
}

// TestJournalBatchesMatchPerEventReference is the differential for the
// batched drain: events recorded in bursts of many sizes, with a Flush
// after each burst, at segment sizes small enough that bursts straddle
// segment boundaries (and one, 1 byte, that rotates after every record),
// leave the same segment files with the same bytes and the same counters
// as refJournal — also when the writer resumes after existing segments.
func TestJournalBatchesMatchPerEventReference(t *testing.T) {
	var events []obs.Event
	for i := 1; i <= 600; i++ {
		e := event(i)
		if i%7 == 0 {
			e.Attrs = append(e.Attrs, obs.Attr{K: "pad", V: strings.Repeat("x", i%97)})
		}
		events = append(events, e)
	}
	bursts := []int{1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 225}
	for _, segBytes := range []int64{1, 100, 333, 1000, 4096, 1 << 20} {
		for _, resume := range []bool{false, true} {
			dir := t.TempDir()
			first := 1
			earlier := map[string]bool{}
			if resume {
				// An earlier run's segments: numbering continues after them.
				for _, name := range []string{"journal-000003.jsonl", "journal-000007.jsonl"} {
					if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
						t.Fatal(err)
					}
					earlier[name] = true
				}
				first = 8
			}
			reg := obs.NewRegistry()
			w := mustOpen(t, Options{Dir: dir, SegmentBytes: segBytes, Fsync: FsyncNever, Obs: reg})
			next := 0
			for _, b := range bursts {
				for _, e := range events[next : next+b] {
					w.Record(e)
				}
				next += b
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			if next != len(events) {
				t.Fatalf("bursts cover %d of %d events", next, len(events))
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			want, wantBytes := refJournal(events, segBytes, first)
			segs, err := Segments(dir)
			if err != nil {
				t.Fatal(err)
			}
			got := make(map[string][]byte)
			for _, p := range segs {
				b, err := os.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				if base := filepath.Base(p); !earlier[base] {
					got[base] = b
				}
			}
			if len(got) != len(want) {
				t.Fatalf("segment %d, resume %v: %d segment files, reference has %d", segBytes, resume, len(got), len(want))
			}
			for name, b := range want {
				if string(got[name]) != string(b) {
					t.Fatalf("segment %d, resume %v: %s differs from the reference:\n got %q\nwant %q", segBytes, resume, name, got[name], b)
				}
			}
			for metric, v := range map[string]int64{
				"chronus_journal_appended_total": int64(len(events)),
				"chronus_journal_bytes":          wantBytes,
				"chronus_journal_dropped_total":  0,
			} {
				if got := reg.Counter(metric).Value(); got != v {
					t.Fatalf("segment %d, resume %v: %s = %d, want %d", segBytes, resume, metric, got, v)
				}
			}
			if got := reg.Gauge("chronus_journal_segments").Value(); got != int64(len(want)) {
				t.Fatalf("segment %d, resume %v: chronus_journal_segments = %v, want %d", segBytes, resume, got, len(want))
			}
		}
	}
}

// replaySeqs is Writer.Replay(since) as the sequence numbers it yields.
func replaySeqs(t *testing.T, w *Writer, since uint64) ([]uint64, ReadStats) {
	t.Helper()
	var seqs []uint64
	stats, err := w.Replay(since, func(e obs.Event) error {
		seqs = append(seqs, e.Seq)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return seqs, stats
}

// TestWriterReplaySeeks: a Replay of the writer's own run near the end
// of a multi-segment journal decodes at most indexEvery lines it then
// filters out, from the segment holding its seek point on, where a read
// from the run's first line would decode every line of every segment;
// and from every cursor, on either side of each seek point and of the
// run's ends, it yields exactly the events past the cursor.
func TestWriterReplaySeeks(t *testing.T) {
	dir := t.TempDir()
	// An earlier run in the same directory, whose numbering overlaps.
	w0 := mustOpen(t, Options{Dir: dir})
	w0.Record(event(1))
	if err := w0.Close(); err != nil {
		t.Fatal(err)
	}
	const n = 3000
	w := mustOpen(t, Options{Dir: dir, SegmentBytes: 16 << 10, Buffer: n})
	defer w.Close()
	for i := 1; i <= n; i++ {
		w.Record(event(i))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	segs, err := Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 8 {
		t.Fatalf("%d segments; the run must span several", len(segs))
	}

	seqs, stats := replaySeqs(t, w, n-10)
	if len(seqs) != 10 || seqs[0] != n-9 {
		t.Fatalf("replay from %d yielded %v", n-10, seqs)
	}
	if stats.Lines > indexEvery+10 || stats.Segments > 2 {
		t.Fatalf("replay from %d decoded %d lines in %d of %d segments, want at most %d lines in 2",
			n-10, stats.Lines, stats.Segments, len(segs)-1, indexEvery+10)
	}

	sinces := []uint64{0, 1, n - 1, n, n + 1}
	for k := uint64(indexEvery); k < n; k += indexEvery {
		sinces = append(sinces, k-1, k, k+1)
	}
	for _, since := range sinces {
		seqs, stats := replaySeqs(t, w, since)
		want := int(max(0, n-int(since)))
		if len(seqs) != want || stats.Events != want {
			t.Fatalf("replay from %d yielded %d events (stats %d), want %d", since, len(seqs), stats.Events, want)
		}
		for i, s := range seqs {
			if s != since+uint64(i)+1 {
				t.Fatalf("replay from %d: event %d has seq %d", since, i, s)
			}
		}
	}
}

// TestWriterReplayUnordered: once a run's sequence numbers stop rising
// (two tracers sharing one writer), Replay reads the whole run again,
// so it yields every event past the cursor, duplicates included.
func TestWriterReplayUnordered(t *testing.T) {
	w := mustOpen(t, Options{Dir: t.TempDir(), Buffer: 2000})
	defer w.Close()
	for run := 0; run < 2; run++ {
		for i := 1; i <= 600; i++ {
			w.Record(event(i))
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	seqs, stats := replaySeqs(t, w, 550)
	if len(seqs) != 100 || stats.Lines != 1200 {
		t.Fatalf("replay from 550 yielded %d events from %d lines, want 100 from 1200", len(seqs), stats.Lines)
	}
}

// TestJournalDrainDoesNotSync: Drain makes queued events readable without
// a sync of its own under every policy (under always the written batch
// still syncs, as every batch does), while Flush keeps its durability
// contract and syncs once under rotate and always.
func TestJournalDrainDoesNotSync(t *testing.T) {
	for _, policy := range []Fsync{FsyncRotate, FsyncNever, FsyncAlways} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			w := mustOpen(t, Options{Dir: dir, Fsync: policy})
			defer w.Close()
			var batchSyncs int64
			if policy == FsyncAlways {
				batchSyncs = 1
			}
			for i := 1; i <= 3; i++ {
				w.Record(event(i))
			}
			if err := w.Drain(); err != nil {
				t.Fatal(err)
			}
			if err := w.Drain(); err != nil { // nothing queued: no write
				t.Fatal(err)
			}
			if got := w.syncs.Load(); got != batchSyncs {
				t.Fatalf("two Drains synced %d times, want %d", got, batchSyncs)
			}
			evs, _, err := ReadAll(dir, 0)
			if err != nil || len(evs) != 3 {
				t.Fatalf("after Drain: %d events readable, %v; want 3", len(evs), err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			want := batchSyncs + 1
			if policy == FsyncNever {
				want = 0
			}
			if got := w.syncs.Load(); got != want {
				t.Fatalf("after Flush: %d syncs, want %d", got, want)
			}
		})
	}
}
