package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"unicode/utf16"
	"unicode/utf8"
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
//
// Because every line the stack writes has that one shape,
//
//	{"seq":N,"vt":N[,"wall":N],"name":S[,"dur":N][,"attrs":[{"k":S,"v":S},…]]}
//
// decoding has a fast path that parses exactly it (canonical, below) and
// declines anything else: other key orders, unknown or duplicate keys,
// interior whitespace, leading zeros, fractions, exponents, overflow,
// lone surrogates, invalid UTF-8. A declined line goes to encoding/json,
// which therefore decides every error and its message. encoding/json is
// also the oracle: FuzzDecodeJSONLine requires the fast path to either
// decline or return exactly what json.Unmarshal returns.

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
	var d decoder
	return d.decode(line)
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
	// The intern table belongs to this call: readers run concurrently
	// (a /watch backfill beside a boot prefeed).
	d := decoder{intern: make(map[string]string)}
	var long []byte // a line longer than br's buffer, accumulated
	for line := 1; ; line++ {
		text, rerr := br.ReadSlice('\n')
		if rerr == bufio.ErrBufferFull {
			long = append(long[:0], text...)
			for rerr == bufio.ErrBufferFull {
				text, rerr = br.ReadSlice('\n')
				long = append(long, text...)
			}
			text = long
		}
		if rerr != nil && rerr != io.EOF {
			return "", rerr
		}
		atEOF := rerr == io.EOF // text, if any, has no terminating newline
		if t := bytes.TrimSpace(text); len(t) > 0 {
			e, derr := d.decode(t)
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

// Strings up to internMaxLen bytes are interned: event names, attribute
// keys, switch names, flow keys and small numbers repeat on nearly every
// line. The table is dropped when it reaches internMaxEntries, so a
// stream of distinct ids (span, xid) cannot grow it without bound.
const (
	internMaxLen     = 32
	internMaxEntries = 1 << 14
)

// decoder decodes event lines. Its scratch is reused from line to line;
// nothing it returns aliases the line or the scratch.
type decoder struct {
	intern map[string]string // nil: no interning
	buf    []byte            // unescaped string bytes
	attrs  []Attr            // attributes of the line being parsed
}

func (d *decoder) decode(line []byte) (Event, error) {
	if e, ok := d.canonical(line); ok {
		return e, nil
	}
	var e Event
	if err := json.Unmarshal(line, &e); err != nil {
		return Event{}, fmt.Errorf("obs: decode event line: %w", err)
	}
	return e, nil
}

// canonical parses the one shape EncodeJSONLine writes, followed by
// nothing but whitespace; ok is false for any other input.
func (d *decoder) canonical(line []byte) (e Event, ok bool) {
	p := scanner{b: line}
	if !p.lit(`{"seq":`) {
		return Event{}, false
	}
	if e.Seq, ok = p.uint(); !ok || !p.lit(`,"vt":`) {
		return Event{}, false
	}
	if e.VT, ok = p.int(); !ok {
		return Event{}, false
	}
	if p.lit(`,"wall":`) {
		if e.Wall, ok = p.int(); !ok {
			return Event{}, false
		}
	}
	if !p.lit(`,"name":`) {
		return Event{}, false
	}
	if e.Name, ok = d.str(&p); !ok {
		return Event{}, false
	}
	if p.lit(`,"dur":`) {
		if e.Dur, ok = p.int(); !ok {
			return Event{}, false
		}
	}
	if p.lit(`,"attrs":[`) {
		attrs := d.attrs[:0]
		for !p.lit("]") {
			if len(attrs) > 0 && !p.lit(",") {
				return Event{}, false
			}
			var a Attr
			if !p.lit(`{"k":`) {
				return Event{}, false
			}
			if a.K, ok = d.str(&p); !ok || !p.lit(`,"v":`) {
				return Event{}, false
			}
			if a.V, ok = d.str(&p); !ok || !p.lit("}") {
				return Event{}, false
			}
			attrs = append(attrs, a)
		}
		// Exact size, and non-nil when empty: json.Unmarshal turns
		// "attrs":[] into an empty slice, not nil.
		e.Attrs = append(make([]Attr, 0, len(attrs)), attrs...)
		d.attrs = attrs
	}
	if !p.lit("}") {
		return Event{}, false
	}
	for _, c := range line[p.i:] {
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return Event{}, false
		}
	}
	return e, true
}

// str parses a JSON string at p: valid UTF-8, the escapes of RFC 8259,
// and no surrogate \u escape (encoding/json never writes one; a lone one
// would be replaced, not kept).
func (d *decoder) str(p *scanner) (string, bool) {
	if !p.lit(`"`) {
		return "", false
	}
	start := p.i
	for p.i < len(p.b) {
		c := p.b[p.i]
		if c == '"' {
			p.i++
			return d.string(p.b[start : p.i-1]), true
		}
		if c == '\\' || c < 0x20 || c >= utf8.RuneSelf {
			break
		}
		p.i++
	}
	buf := append(d.buf[:0], p.b[start:p.i]...)
	for p.i < len(p.b) {
		switch c := p.b[p.i]; {
		case c == '"':
			p.i++
			d.buf = buf
			return d.string(buf), true
		case c < 0x20:
			return "", false
		case c == '\\':
			if p.i+1 == len(p.b) {
				return "", false
			}
			switch esc := p.b[p.i+1]; esc {
			case '"', '\\', '/':
				buf = append(buf, esc)
			case 'b':
				buf = append(buf, '\b')
			case 'f':
				buf = append(buf, '\f')
			case 'n':
				buf = append(buf, '\n')
			case 'r':
				buf = append(buf, '\r')
			case 't':
				buf = append(buf, '\t')
			case 'u':
				r, ok := hex4(p.b[p.i+2:])
				if !ok || utf16.IsSurrogate(r) {
					return "", false
				}
				buf = utf8.AppendRune(buf, r)
				p.i += 4
			default:
				return "", false
			}
			p.i += 2
		case c < utf8.RuneSelf:
			buf = append(buf, c)
			p.i++
		default:
			r, size := utf8.DecodeRune(p.b[p.i:])
			if r == utf8.RuneError && size == 1 {
				return "", false
			}
			buf = append(buf, p.b[p.i:p.i+size]...)
			p.i += size
		}
	}
	return "", false
}

// string returns b as a string, from the intern table when b is short.
func (d *decoder) string(b []byte) string {
	if d.intern == nil || len(b) > internMaxLen {
		return string(b)
	}
	if s, ok := d.intern[string(b)]; ok {
		return s
	}
	if len(d.intern) == internMaxEntries {
		clear(d.intern)
	}
	s := string(b)
	d.intern[s] = s
	return s
}

// hex4 parses the four hex digits of a \u escape at the start of b.
func hex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return 0, false
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// scanner walks one line for the fast path.
type scanner struct {
	b []byte
	i int
}

// lit consumes s if the input continues with it.
func (p *scanner) lit(s string) bool {
	if len(p.b)-p.i < len(s) || string(p.b[p.i:p.i+len(s)]) != s {
		return false
	}
	p.i += len(s)
	return true
}

// uint parses a JSON integer without sign, leading zeros or overflow.
func (p *scanner) uint() (uint64, bool) {
	start := p.i
	var v uint64
	for p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9' {
		digit := uint64(p.b[p.i] - '0')
		if v > (math.MaxUint64-digit)/10 {
			return 0, false
		}
		v = v*10 + digit
		p.i++
	}
	n := p.i - start
	if n == 0 || (n > 1 && p.b[start] == '0') {
		return 0, false
	}
	return v, true
}

// int parses a JSON integer that fits an int64; "-0" is declined.
func (p *scanner) int() (int64, bool) {
	neg := p.lit("-")
	v, ok := p.uint()
	switch {
	case !ok:
		return 0, false
	case neg && v != 0 && v <= 1<<63:
		return int64(-v), true
	case !neg && v < 1<<63:
		return int64(v), true
	}
	return 0, false
}
