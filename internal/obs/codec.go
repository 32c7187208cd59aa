package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// This file is the single JSONL codec for trace events. Every producer
// and consumer of the on-the-wire event format — Tracer.WriteJSONL, the
// chronusd /trace endpoint, the journal writer and reader, the audit
// readers and `mutp -trace` — goes through EncodeJSONLine and
// DecodeJSONLine (readers via ReadJSONL, the one line loop), so there
// is exactly one serialization and it cannot drift between the live
// stream and the durable record. The encoding is canonical: for a fixed
// event the bytes are identical everywhere (struct-ordered keys, no
// map iteration, zero fields omitted per the Event tags), which is what
// lets a journal capture be compared byte-for-byte against the
// in-memory endpoints.

// EncodeJSONLine appends the canonical JSON encoding of e plus a
// trailing newline to buf and returns the extended slice.
func EncodeJSONLine(buf []byte, e Event) ([]byte, error) {
	line, err := json.Marshal(e)
	if err != nil {
		return buf, err
	}
	buf = append(buf, line...)
	return append(buf, '\n'), nil
}

// DecodeJSONLine parses one line of the JSONL stream (with or without
// its trailing newline) back into an Event.
func DecodeJSONLine(line []byte) (Event, error) {
	var e Event
	if err := json.Unmarshal(line, &e); err != nil {
		return Event{}, fmt.Errorf("obs: decode event line: %w", err)
	}
	return e, nil
}

// ReadJSONL decodes a JSON-Lines event stream, passing each event to fn
// in stream order; blank lines are skipped. A malformed line is a
// line-numbered error, with one exception when tolerant is set: a final
// line missing its terminating newline is the torn tail a writer cut
// off mid-append leaves behind, so it is skipped and described in torn
// instead. A malformed line that IS newline-terminated, or one followed
// by more data, always fails — nothing after a corrupt record can be
// trusted to be aligned. Read errors and fn's errors are returned as
// they are.
func ReadJSONL(r io.Reader, tolerant bool, fn func(Event) error) (torn string, err error) {
	br := bufio.NewReaderSize(r, 64*1024)
	for line := 1; ; line++ {
		text, rerr := br.ReadString('\n')
		if rerr != nil && rerr != io.EOF {
			return "", rerr
		}
		atEOF := rerr == io.EOF // text, if any, has no terminating newline
		if t := strings.TrimSpace(text); t != "" {
			e, derr := DecodeJSONLine([]byte(t))
			switch {
			case derr == nil:
				if err := fn(e); err != nil {
					return "", err
				}
			case tolerant && atEOF:
				torn = fmt.Sprintf("line %d: ignoring torn trailing line: %v", line, derr)
			default:
				return "", fmt.Errorf("line %d: %w", line, derr)
			}
		}
		if atEOF {
			return torn, nil
		}
	}
}
