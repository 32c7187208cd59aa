package main

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"github.com/chronus-sdn/chronus/internal/obs"
)

// GET /watch is the live stream: trace events and finished spans pushed
// as Server-Sent Events the moment they are recorded, instead of being
// polled out of /trace pages. Each SSE frame carries the event's
// sequence number as its SSE id, so a client that reconnects with
// ?since=<last id> (or the standard Last-Event-ID header) resumes
// exactly where it stopped, with no duplicates.
//
// Resume survives ring eviction: when the cursor points below the
// ring's oldest retained event, the gap is backfilled from the durable
// journal by tracePage, the reader every fold shares (same Seq
// coordinates — journal offsets and ring cursors are one namespace).
// Only events that are in neither — journal-disabled daemons, or events
// the journal itself had to drop — surface as a "gap" frame carrying the
// skipped count, the same accounting /trace pages report. Each poll
// reads everything after the cursor unpaged: a bounded page per poll
// interval would cap the stream's rate, so a tracer emitting faster
// would leave the watcher behind until eviction turned its backlog into
// gaps. The ring's events come as windows, and the journal's seek index
// keeps a backfill read proportional to the gap.
const (
	watchPollInterval = 25 * time.Millisecond
	watchPingInterval = 15 * time.Second
)

func (s *server) handleWatch(w http.ResponseWriter, r *http.Request) {
	since, err := watchCursor(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	fl := http.NewResponseController(w)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	if err := fl.Flush(); err != nil {
		return
	}

	ctx := r.Context()
	cursor := since
	var buf []byte
	lastWrite := time.Now()
	ticker := time.NewTicker(watchPollInterval)
	defer ticker.Stop()
	for {
		ps := s.tracePage(cursor, 0)
		if ps.Skipped > 0 {
			if _, err := fmt.Fprintf(w, "event: gap\ndata: {\"after\": %d, \"skipped\": %d}\n\n", cursor, ps.Skipped); err != nil {
				return
			}
		}
		for _, e := range ps.Events {
			if err := writeEventFrame(w, &buf, e); err != nil {
				return
			}
		}
		cursor = ps.Next
		if len(ps.Events) > 0 || ps.Skipped > 0 {
			if err := fl.Flush(); err != nil {
				return
			}
			lastWrite = time.Now()
		} else if time.Since(lastWrite) >= watchPingInterval {
			// Heartbeat comment so a dead (slow, gone) client surfaces
			// as a write error instead of a goroutine parked forever.
			if _, err := fmt.Fprint(w, ": ping\n\n"); err != nil {
				return
			}
			if err := fl.Flush(); err != nil {
				return
			}
			lastWrite = time.Now()
		}
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
	}
}

// watchCursor reads the resume cursor: ?since= wins, then the SSE
// standard Last-Event-ID header, default 0 (everything retained).
func watchCursor(r *http.Request) (uint64, error) {
	q := r.URL.Query().Get("since")
	if q == "" {
		q = r.Header.Get("Last-Event-ID")
	}
	if q == "" {
		return 0, nil
	}
	since, err := strconv.ParseUint(q, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad since: %w", err)
	}
	return since, nil
}

// writeEventFrame emits one trace event as an SSE frame: the sequence
// number as the frame id, "span" or "trace" as the event type, and the
// canonical codec line as the data.
func writeEventFrame(w http.ResponseWriter, buf *[]byte, e obs.Event) error {
	kind := "trace"
	if e.Name == obs.SpanEventName {
		kind = "span"
	}
	line, err := obs.EncodeJSONLine((*buf)[:0], e)
	*buf = line
	if err != nil {
		return err
	}
	// The codec line ends in '\n', which terminates the data field; one
	// more newline closes the frame.
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n", e.Seq, kind, line)
	return err
}
