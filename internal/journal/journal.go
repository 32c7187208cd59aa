// Package journal is the durable telemetry record: a crash-safe,
// size-rotated, segment-based JSONL journal of obs trace events. The
// Writer implements obs.Sink, so attaching it to a Tracer makes every
// recorded event — including the ones the bounded in-memory ring later
// evicts — land in an append-only file that survives the process.
//
// The append path never blocks the tracer hot path: Record hands the
// event to a bounded buffer and returns. A background goroutine drains
// the buffer: each time it wakes it encodes every queued event into one
// batch and hands the batch to the current segment file in one write,
// so the syscall is paid per drain, not per event. A batch is split only
// where a segment fills: the writer rotates to a new segment after the
// record that brings it to the size threshold, exactly as if it wrote
// record by record. When the buffer is full the event is counted as
// dropped (chronus_journal_dropped_total) — a separate ledger from the
// tracer ring's eviction counter, so "the ring wrapped" and "the disk
// could not keep up" are distinguishable.
//
// Segments use the shared obs JSONL codec, so a journal is bytewise the
// same format as Tracer.WriteJSONL, the chronusd /trace stream and
// `mutp -trace` captures, and any JSONL consumer (including
// `mutp -audit-from`) can replay it. The reader side (reader.go)
// tolerates a torn trailing line per segment — the expected shape of a
// crash mid-append — and loses at most that one partial record.
package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/chronus-sdn/chronus/internal/obs"
)

const (
	segPrefix = "journal-"
	segSuffix = ".jsonl"

	defaultSegmentBytes = 8 << 20
	defaultBuffer       = 8192
)

// Fsync selects how eagerly the writer flushes segments to stable
// storage. Durability against a *process* crash needs no fsync at all —
// once write(2) returned, the data lives in the OS page cache and
// survives a SIGKILL — fsync only matters for machine crashes.
type Fsync int

const (
	// FsyncRotate syncs a segment when it is rotated out, on every
	// Flush and on Close — the default: bounded data at risk on power
	// loss, no sync on the drain path itself or on Drain.
	FsyncRotate Fsync = iota
	// FsyncNever leaves flushing entirely to the OS, Flush and Close
	// included.
	FsyncNever
	// FsyncAlways additionally syncs after every batch the drain
	// goroutine writes, before the batch's events count as appended.
	FsyncAlways
)

// String renders the policy the way ParseFsync accepts it.
func (f Fsync) String() string {
	switch f {
	case FsyncNever:
		return "never"
	case FsyncAlways:
		return "always"
	default:
		return "rotate"
	}
}

// ParseFsync parses a policy knob value: rotate, never or always.
func ParseFsync(s string) (Fsync, error) {
	switch s {
	case "rotate", "":
		return FsyncRotate, nil
	case "never":
		return FsyncNever, nil
	case "always":
		return FsyncAlways, nil
	}
	return 0, fmt.Errorf("journal: unknown fsync policy %q (want rotate, never or always)", s)
}

// Options configures a Writer.
type Options struct {
	// Dir is the journal directory; it is created if missing. Segment
	// files are named journal-NNNNNN.jsonl and numbered monotonically —
	// a Writer opened over an existing journal continues after the
	// highest present segment rather than overwriting it.
	Dir string
	// SegmentBytes rotates to a new segment once the current one
	// reaches this size (default 8 MiB). Rotation happens on record
	// boundaries: a segment holds only whole lines plus at most one
	// torn tail from a crash.
	SegmentBytes int64
	// Buffer bounds the number of events queued between Record and the
	// drain goroutine (default 8192). A full buffer drops the event and
	// counts it, never blocks.
	Buffer int
	// Fsync is the durability policy (default FsyncRotate).
	Fsync Fsync
	// Obs receives the journal metrics:
	// chronus_journal_appended_total, chronus_journal_dropped_total,
	// chronus_journal_bytes and chronus_journal_segments.
	Obs *obs.Registry
}

// RegisterMetrics pre-registers the journal metric families on r so an
// exposition is complete before the first event is appended.
func RegisterMetrics(r *obs.Registry) {
	r.Help("chronus_journal_appended_total", "Trace events appended to the durable journal.")
	r.Counter("chronus_journal_appended_total")
	r.Help("chronus_journal_dropped_total", "Trace events dropped because the journal buffer was full or the writer failed.")
	r.Counter("chronus_journal_dropped_total")
	r.Help("chronus_journal_bytes", "Bytes appended to the durable journal.")
	r.Counter("chronus_journal_bytes")
	r.Help("chronus_journal_segments", "Journal segment files written so far.")
	r.Gauge("chronus_journal_segments")
}

// Writer appends trace events to a segmented JSONL journal. It
// implements obs.Sink; Record never blocks. Create with Open, stop with
// Close.
type Writer struct {
	opts   Options
	ch     chan obs.Event
	flush  chan flushReq
	quit   chan struct{}
	done   chan struct{}
	closed atomic.Bool

	appended *obs.Counter
	dropped  *obs.Counter
	bytes    *obs.Counter
	segments *obs.Gauge

	// first is the segment index Open started this run on.
	first int

	// Drain-goroutine state (touched only by run, except err).
	f        *os.File
	segIdx   int
	segBytes int64
	buf      []byte // the batch: encoded events not yet written
	batch    int64  // how many events buf holds
	lines    int    // events encoded this run
	lastSeq  uint64 // the Seq of the last event encoded
	marks    []mark // seek points of the lines in buf

	errMu sync.Mutex
	err   error // first write/sync error, sticky

	syncs atomic.Int64 // segment syncs issued, so tests can count them

	// index is this run's seek index for Replay: a mark every
	// indexEvery lines, Seq-ascending, added once the batch holding its
	// line is written. unordered is set, and the index abandoned, once
	// an event's Seq fails to exceed the previous one's.
	idxMu     sync.Mutex
	index     []mark
	unordered bool
}

// flushReq asks the drain goroutine to write everything queued, and to
// sync the segment when sync is set, then to close ack.
type flushReq struct {
	ack  chan struct{}
	sync bool
}

// indexEvery is how many lines apart Replay's seek points lie: the most
// lines a Replay decodes before it reaches its cursor.
const indexEvery = 256

// mark is one seek point: the line of event seq starts off bytes into
// segment seg.
type mark struct {
	seq uint64
	seg int
	off int64
}

// Open creates (or re-opens) the journal directory and starts the drain
// goroutine. Segment numbering continues after any segments already in
// the directory.
func Open(o Options) (*Writer, error) {
	if o.Dir == "" {
		return nil, fmt.Errorf("journal: no directory")
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = defaultSegmentBytes
	}
	if o.Buffer <= 0 {
		o.Buffer = defaultBuffer
	}
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, err
	}
	segs, err := Segments(o.Dir)
	if err != nil {
		return nil, err
	}
	next := 1
	if len(segs) > 0 {
		last := segs[len(segs)-1]
		if n, ok := segmentIndex(filepath.Base(last)); ok {
			next = n + 1
		}
	}
	w := &Writer{
		opts:     o,
		ch:       make(chan obs.Event, o.Buffer),
		flush:    make(chan flushReq),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
		first:    next,
		segIdx:   next,
		appended: o.Obs.Counter("chronus_journal_appended_total"),
		dropped:  o.Obs.Counter("chronus_journal_dropped_total"),
		bytes:    o.Obs.Counter("chronus_journal_bytes"),
		segments: o.Obs.Gauge("chronus_journal_segments"),
	}
	go w.run()
	return w, nil
}

// Record queues one event for appending. It implements obs.Sink: it is
// called with the tracer lock held and returns immediately — a full
// buffer (or a closed writer) drops the event and counts the drop.
func (w *Writer) Record(e obs.Event) {
	if w == nil || w.closed.Load() {
		return
	}
	select {
	case w.ch <- e:
	default:
		w.dropped.Inc()
	}
}

// Flush blocks until every event queued before the call has been
// handed to the OS and the current segment synced (unless the policy is
// FsyncNever), then reports any sticky write error. It is how tests and
// handlers make the journal durable at a known point.
func (w *Writer) Flush() error { return w.request(true) }

// Drain blocks until every event queued before the call has been handed
// to the OS, then reports any sticky write error. It never syncs: a
// reader of the segments needs the events in the files, not on stable
// storage, so Drain is how readers make the journal catch up with the
// ring.
func (w *Writer) Drain() error { return w.request(false) }

func (w *Writer) request(sync bool) error {
	if w == nil {
		return nil
	}
	req := flushReq{ack: make(chan struct{}), sync: sync}
	select {
	case w.flush <- req:
		<-req.ack
	case <-w.done:
	}
	return w.Err()
}

// Close drains the buffer, syncs and closes the current segment, and
// stops the drain goroutine. Events recorded after Close are discarded.
func (w *Writer) Close() error {
	if w == nil {
		return nil
	}
	if w.closed.CompareAndSwap(false, true) {
		close(w.quit)
	}
	<-w.done
	return w.Err()
}

// Err returns the first write or sync error the drain goroutine hit,
// if any. Appends after the first error are counted as dropped.
func (w *Writer) Err() error {
	w.errMu.Lock()
	defer w.errMu.Unlock()
	return w.err
}

func (w *Writer) fail(err error) {
	w.errMu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.errMu.Unlock()
}

// run is the drain loop: it moves queued events to the current segment
// one batch per wake-up, rotating and syncing per the options.
func (w *Writer) run() {
	defer close(w.done)
	for {
		select {
		case e := <-w.ch:
			w.encode(e)
			w.drain()
		case req := <-w.flush:
			w.drain()
			if req.sync && w.opts.Fsync != FsyncNever && w.f != nil {
				w.sync()
			}
			close(req.ack)
		case <-w.quit:
			w.drain()
			w.finish()
			return
		}
	}
}

// drain adds every event queued right now to the batch and writes the
// batch. Only run receives from w.ch, so the queue cannot shrink under
// it and the batch is bounded by the buffer size.
func (w *Writer) drain() {
	for n := len(w.ch); n > 0; n-- {
		w.encode(<-w.ch)
	}
	w.write()
}

func (w *Writer) finish() {
	if w.f == nil {
		return
	}
	if w.opts.Fsync != FsyncNever {
		w.sync()
	}
	if err := w.f.Close(); err != nil {
		w.fail(err)
	}
	w.f = nil
}

// sync flushes the current segment to stable storage.
func (w *Writer) sync() {
	w.syncs.Add(1)
	if err := w.f.Sync(); err != nil {
		w.fail(err)
	}
}

// encode appends one event to the batch through the shared codec. When
// the event fills the current segment, the batch is written and the
// segment rotated, so no batch spans two segments.
func (w *Writer) encode(e obs.Event) {
	if w.Err() != nil {
		w.dropped.Inc()
		return
	}
	off := w.segBytes + int64(len(w.buf))
	var err error
	if w.buf, err = obs.EncodeJSONLine(w.buf, e); err != nil {
		w.fail(err)
		w.dropped.Inc()
		return
	}
	w.batch++
	if w.lines > 0 && e.Seq <= w.lastSeq {
		w.idxMu.Lock()
		w.unordered = true
		w.idxMu.Unlock()
	}
	if w.lines%indexEvery == 0 && e.Seq > 0 {
		w.marks = append(w.marks, mark{seq: e.Seq, seg: w.segIdx, off: off})
	}
	w.lines++
	w.lastSeq = e.Seq
	if w.segBytes+int64(len(w.buf)) >= w.opts.SegmentBytes && w.write() {
		w.rotate()
	}
}

// write hands the batch to the current segment in one write, opening
// the segment first if none is open. The batch's events count as
// appended once the write (and, under FsyncAlways, the sync) returned;
// a failed write counts them all as dropped. It reports whether the
// batch was written.
func (w *Writer) write() bool {
	n := w.batch
	if n == 0 {
		return false
	}
	buf, marks := w.buf, w.marks
	w.buf, w.batch, w.marks = w.buf[:0], 0, w.marks[:0]
	if w.f == nil {
		name := filepath.Join(w.opts.Dir, fmt.Sprintf("%s%06d%s", segPrefix, w.segIdx, segSuffix))
		f, err := os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
		if err != nil {
			w.fail(err)
			w.dropped.Add(n)
			return false
		}
		w.f = f
		w.segments.Add(1)
	}
	wrote, err := w.f.Write(buf)
	w.bytes.Add(int64(wrote))
	w.segBytes += int64(wrote)
	if err != nil {
		w.fail(err)
		w.dropped.Add(n)
		return false
	}
	if w.opts.Fsync == FsyncAlways {
		w.sync()
	}
	w.appended.Add(n)
	if len(marks) > 0 {
		w.idxMu.Lock()
		w.index = append(w.index, marks...)
		w.idxMu.Unlock()
	}
	return true
}

// seek returns where a Replay of this run with cursor since may start
// reading: the last mark whose line, and every line before it, has a
// Seq at most since+1, or the run's first segment from its start.
func (w *Writer) seek(since uint64) mark {
	w.idxMu.Lock()
	defer w.idxMu.Unlock()
	if w.unordered {
		return mark{seg: w.first}
	}
	i := sort.Search(len(w.index), func(i int) bool { return w.index[i].seq-1 > since })
	if i == 0 {
		return mark{seg: w.first}
	}
	return w.index[i-1]
}

// rotate closes the current segment (syncing it unless the policy is
// never) and arranges for the next append to open a fresh one.
func (w *Writer) rotate() {
	if w.opts.Fsync != FsyncNever {
		w.sync()
	}
	if err := w.f.Close(); err != nil {
		w.fail(err)
	}
	w.f = nil
	w.segIdx++
	w.segBytes = 0
}

// segmentIndex parses the numeric index out of a segment file name.
func segmentIndex(base string) (int, bool) {
	if len(base) != len(segPrefix)+6+len(segSuffix) ||
		base[:len(segPrefix)] != segPrefix || base[len(base)-len(segSuffix):] != segSuffix {
		return 0, false
	}
	n := 0
	for _, c := range base[len(segPrefix) : len(segPrefix)+6] {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// Segments lists the journal segment files in dir in replay order
// (ascending segment index). Non-segment files are ignored.
func Segments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		if _, ok := segmentIndex(ent.Name()); ok {
			out = append(out, filepath.Join(dir, ent.Name()))
		}
	}
	sort.Strings(out) // zero-padded indices sort lexically
	return out, nil
}
