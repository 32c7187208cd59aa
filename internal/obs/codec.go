package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
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
// decline or return exactly what json.Unmarshal returns, and
// FuzzEncodeJSONLine requires EncodeJSONLine to write exactly what
// json.Marshal writes.

// EncodeJSONLine appends the canonical JSON encoding of e plus a
// trailing newline to buf and returns the extended slice. It writes the
// bytes json.Marshal(e) would, without reflection or a second buffer:
// the struct-ordered keys, the omitempty fields (wall, dur, an empty or
// nil attrs) left out, and every string escaped by appendString.
// FuzzEncodeJSONLine holds it to json.Marshal byte for byte. The error
// is always nil.
func EncodeJSONLine(buf []byte, e Event) ([]byte, error) {
	buf = append(buf, `{"seq":`...)
	buf = strconv.AppendUint(buf, e.Seq, 10)
	buf = append(buf, `,"vt":`...)
	buf = strconv.AppendInt(buf, e.VT, 10)
	if e.Wall != 0 {
		buf = append(buf, `,"wall":`...)
		buf = strconv.AppendInt(buf, e.Wall, 10)
	}
	buf = append(buf, `,"name":`...)
	buf = appendString(buf, e.Name)
	if e.Dur != 0 {
		buf = append(buf, `,"dur":`...)
		buf = strconv.AppendInt(buf, e.Dur, 10)
	}
	if len(e.Attrs) > 0 {
		buf = append(buf, `,"attrs":[`...)
		for i, a := range e.Attrs {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, `{"k":`...)
			buf = appendString(buf, a.K)
			buf = append(buf, `,"v":`...)
			buf = appendString(buf, a.V)
			buf = append(buf, '}')
		}
		buf = append(buf, ']')
	}
	return append(buf, '}', '\n'), nil
}

// verbatim marks the ASCII bytes appendString copies unescaped.
var verbatim = func() (t [utf8.RuneSelf]bool) {
	for c := byte(0x20); c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// appendString appends s as a JSON string the way encoding/json writes
// it (HTML escaping on): '"' and '\\' backslash-escaped; \b, \f, \n, \r
// and \t by name; the other control bytes and '<', '>', '&' as \u00XX;
// each invalid UTF-8 byte as \ufffd; U+2028 and U+2029 as \u2028 and
// \u2029; everything else verbatim.
func appendString(buf []byte, s string) []byte {
	const hex = "0123456789abcdef"
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if verbatim[c] {
				i++
				continue
			}
			buf = append(buf, s[start:i]...)
			switch c {
			case '"', '\\':
				buf = append(buf, '\\', c)
			case '\b':
				buf = append(buf, '\\', 'b')
			case '\f':
				buf = append(buf, '\\', 'f')
			case '\n':
				buf = append(buf, '\\', 'n')
			case '\r':
				buf = append(buf, '\\', 'r')
			case '\t':
				buf = append(buf, '\\', 't')
			default:
				buf = append(buf, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			buf = append(buf, s[start:i]...)
			buf = append(buf, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			buf = append(buf, s[start:i]...)
			buf = append(buf, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	buf = append(buf, s[start:]...)
	return append(buf, '"')
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
//
// The events fn receives share storage within one call: their Attrs are
// windows onto attribute blocks of at most 32 KiB, each capped at its
// own length, so writing to one event's attributes or appending to them
// never touches another event's. An event fn retains keeps at most one
// block alive (a line with more than 1 024 attributes gets a slice
// of its own), plus its strings; short ones come from a per-call intern
// cache that is dropped when the call returns.
func ReadJSONL(r io.Reader, tolerant bool, fn func(Event) error) (torn string, err error) {
	br := bufio.NewReaderSize(r, 64*1024)
	// The intern cache belongs to this call: readers run concurrently
	// (a /watch backfill beside a boot prefeed).
	d := decoder{intern: new(internCache)}
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

// Strings of plain ASCII up to internMaxLen bytes are interned: event
// names, attribute keys, switch names, flow keys and small numbers repeat
// on nearly every line. The cache is direct-mapped — one slot per
// string, picked by the FNV-1a hash str computes as it scans — so a hit
// costs one compare, a miss one allocation that overwrites the slot, and
// a stream of distinct ids (span, xid) evicts entries rather than
// growing anything: at worst interning stops paying, never more than
// one probe per string. internSlots strings are 64 KiB per read.
//
// Attributes are copied out of the scratch into blocks of blockAttrs
// (32 KiB) shared by the lines of one read, instead of one allocation
// per line.
const (
	internMaxLen = 32
	internSlots  = 1 << 12
	blockAttrs   = 1 << 10

	fnvOffset = 2166136261
	fnvPrime  = 16777619
)

// internCache is the intern table of one read.
type internCache [internSlots]string

// decoder decodes event lines. Its scratch is reused from line to line;
// nothing it returns aliases the line or the scratch. The zero decoder,
// for one-off lines, neither interns nor shares attribute blocks.
type decoder struct {
	intern *internCache // nil: a one-off decoder
	buf    []byte       // unescaped string bytes
	attrs  []Attr       // attributes of the line being parsed
	block  []Attr       // the attribute block the read is filling
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
		for !p.char(']') {
			if len(attrs) > 0 && !p.char(',') {
				return Event{}, false
			}
			var a Attr
			if !p.lit(`{"k":`) {
				return Event{}, false
			}
			if a.K, ok = d.str(&p); !ok || !p.lit(`,"v":`) {
				return Event{}, false
			}
			if a.V, ok = d.str(&p); !ok || !p.char('}') {
				return Event{}, false
			}
			attrs = append(attrs, a)
		}
		d.attrs = attrs
		e.Attrs = d.keep(attrs)
	}
	if !p.char('}') {
		return Event{}, false
	}
	for _, c := range line[p.i:] {
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return Event{}, false
		}
	}
	return e, true
}

// keep copies one line's attributes out of the scratch: into the read's
// current block, as a window capped at its own length, or for a one-off
// decoder and an oversized line into a slice of their own. The result is
// non-nil when empty: json.Unmarshal turns "attrs":[] into an empty
// slice, not nil.
func (d *decoder) keep(attrs []Attr) []Attr {
	n := len(attrs)
	if d.intern == nil || n == 0 || n > blockAttrs {
		return append(make([]Attr, 0, n), attrs...)
	}
	if cap(d.block)-len(d.block) < n {
		d.block = make([]Attr, 0, blockAttrs)
	}
	start := len(d.block)
	d.block = append(d.block, attrs...)
	return d.block[start:len(d.block):len(d.block)]
}

// str parses a JSON string at p: valid UTF-8, the escapes of RFC 8259,
// and no surrogate \u escape (encoding/json never writes one; a lone one
// would be replaced, not kept).
func (d *decoder) str(p *scanner) (string, bool) {
	if !p.char('"') {
		return "", false
	}
	start := p.i
	h := uint32(fnvOffset)
	for p.i < len(p.b) {
		c := p.b[p.i]
		if c == '"' {
			p.i++
			return d.string(p.b[start:p.i-1], h), true
		}
		if c == '\\' || c < 0x20 || c >= utf8.RuneSelf {
			break
		}
		h = (h ^ uint32(c)) * fnvPrime
		p.i++
	}
	buf := append(d.buf[:0], p.b[start:p.i]...)
	for p.i < len(p.b) {
		switch c := p.b[p.i]; {
		case c == '"':
			p.i++
			d.buf = buf
			return string(buf), true
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

// string returns b, a plain ASCII string hashing to h, as a string:
// from the intern cache when b is short and the decoder has one.
func (d *decoder) string(b []byte, h uint32) string {
	if d.intern == nil || len(b) > internMaxLen {
		return string(b)
	}
	slot := &d.intern[h%internSlots]
	if *slot != string(b) {
		*slot = string(b)
	}
	return *slot
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

// char consumes c if the input continues with it: lit for one byte,
// without a string compare.
func (p *scanner) char(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
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
	neg := p.char('-')
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
