// Package ofp defines a compact OpenFlow-style control protocol between the
// Chronus controller and switch agents: Hello, Echo, Features, FlowMod,
// Barrier, Stats and Error messages with a fixed 8-byte header and
// big-endian binary encoding over any stream transport.
//
// Two departures from stock OpenFlow matter for the paper:
//
//   - FlowMod carries an optional ExecuteAt timestamp — the timed-update
//     primitive of Time4/TimeFlip-style SDNs. A switch that receives a
//     timed FlowMod confirms it via the barrier immediately but applies it
//     when its local clock reaches ExecuteAt.
//   - Matches are exact (flow name + version tag), following the paper's
//     observation that wildcard rules are increasingly replaced by exact
//     matches.
package ofp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Version is the protocol version byte.
const Version = 1

// MsgType identifies a message.
type MsgType uint8

// Message types.
const (
	TypeHello MsgType = iota + 1
	TypeEchoRequest
	TypeEchoReply
	TypeFeaturesRequest
	TypeFeaturesReply
	TypeFlowMod
	TypeBarrierRequest
	TypeBarrierReply
	TypeStatsRequest
	TypeStatsReply
	TypeError
	TypePacketIn
)

func (t MsgType) String() string {
	switch t {
	case TypeHello:
		return "hello"
	case TypeEchoRequest:
		return "echo-request"
	case TypeEchoReply:
		return "echo-reply"
	case TypeFeaturesRequest:
		return "features-request"
	case TypeFeaturesReply:
		return "features-reply"
	case TypeFlowMod:
		return "flow-mod"
	case TypeBarrierRequest:
		return "barrier-request"
	case TypeBarrierReply:
		return "barrier-reply"
	case TypeStatsRequest:
		return "stats-request"
	case TypeStatsReply:
		return "stats-reply"
	case TypeError:
		return "error"
	case TypePacketIn:
		return "packet-in"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// Msg is any protocol message.
type Msg interface {
	Type() MsgType
	// Xid returns the transaction ID correlating requests and replies.
	Xid() uint32
	encodeBody(w *writer)
	decodeBody(r *reader) error
}

// Header layout: version(1) type(1) length(2) xid(4); length covers the
// whole message including the header.
const headerLen = 8

// MaxMsgLen bounds a message; decoding larger announcements fails instead
// of allocating unboundedly.
const MaxMsgLen = 1 << 16

// maxStrLen bounds a string field: the writer truncates to it and the
// reader refuses longer ones, so every message Decode accepts encodes
// back to itself.
const maxStrLen = 1 << 12

// Errors.
var (
	ErrBadVersion = errors.New("ofp: bad protocol version")
	ErrBadLength  = errors.New("ofp: bad message length")
	ErrBadType    = errors.New("ofp: unknown message type")
	ErrTruncated  = errors.New("ofp: truncated message")
)

// Encode serializes a message into a fresh buffer.
func Encode(m Msg) []byte {
	return appendMsg(make([]byte, 0, headerLen+32), m)
}

// appendMsg appends the serialization of m to dst and returns the
// extended slice; it is how a sender queues several messages for one
// write.
func appendMsg(dst []byte, m Msg) []byte {
	start := len(dst)
	w := &writer{buf: append(dst, make([]byte, headerLen)...)}
	m.encodeBody(w)
	msg := w.buf[start:]
	if len(msg) > MaxMsgLen {
		panic(fmt.Sprintf("ofp: message of %d bytes exceeds MaxMsgLen", len(msg)))
	}
	msg[0] = Version
	msg[1] = byte(m.Type())
	binary.BigEndian.PutUint16(msg[2:4], uint16(len(msg)))
	binary.BigEndian.PutUint32(msg[4:8], m.Xid())
	return w.buf
}

// Decode reads exactly one message from r.
func Decode(r io.Reader) (Msg, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, ErrTruncated
		}
		return nil, err
	}
	if hdr[0] != Version {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, hdr[0])
	}
	length := int(binary.BigEndian.Uint16(hdr[2:4]))
	if length < headerLen {
		return nil, fmt.Errorf("%w: %d", ErrBadLength, length)
	}
	body := make([]byte, length-headerLen)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, ErrTruncated
	}
	m, err := newByType(MsgType(hdr[1]))
	if err != nil {
		return nil, err
	}
	setXid(m, binary.BigEndian.Uint32(hdr[4:8]))
	rd := &reader{buf: body}
	if err := m.decodeBody(rd); err != nil {
		return nil, err
	}
	if rd.pos != len(rd.buf) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadLength, len(rd.buf)-rd.pos)
	}
	return m, nil
}

func newByType(t MsgType) (Msg, error) {
	switch t {
	case TypeHello:
		return &Hello{}, nil
	case TypeEchoRequest:
		return &EchoRequest{}, nil
	case TypeEchoReply:
		return &EchoReply{}, nil
	case TypeFeaturesRequest:
		return &FeaturesRequest{}, nil
	case TypeFeaturesReply:
		return &FeaturesReply{}, nil
	case TypeFlowMod:
		return &FlowMod{}, nil
	case TypeBarrierRequest:
		return &BarrierRequest{}, nil
	case TypeBarrierReply:
		return &BarrierReply{}, nil
	case TypeStatsRequest:
		return &StatsRequest{}, nil
	case TypeStatsReply:
		return &StatsReply{}, nil
	case TypeError:
		return &ErrorMsg{}, nil
	case TypePacketIn:
		return &PacketIn{}, nil
	default:
		return nil, fmt.Errorf("%w: %d", ErrBadType, t)
	}
}

func setXid(m Msg, xid uint32) {
	switch v := m.(type) {
	case *Hello:
		v.XID = xid
	case *EchoRequest:
		v.XID = xid
	case *EchoReply:
		v.XID = xid
	case *FeaturesRequest:
		v.XID = xid
	case *FeaturesReply:
		v.XID = xid
	case *FlowMod:
		v.XID = xid
	case *BarrierRequest:
		v.XID = xid
	case *BarrierReply:
		v.XID = xid
	case *StatsRequest:
		v.XID = xid
	case *StatsReply:
		v.XID = xid
	case *ErrorMsg:
		v.XID = xid
	case *PacketIn:
		v.XID = xid
	}
}

// writer accumulates big-endian fields.
type writer struct{ buf []byte }

func (w *writer) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *writer) u16(v uint16) { w.buf = binary.BigEndian.AppendUint16(w.buf, v) }
func (w *writer) u32(v uint32) { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64) { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }
func (w *writer) i64(v int64)  { w.u64(uint64(v)) }
func (w *writer) str(s string) {
	if len(s) > maxStrLen {
		s = s[:maxStrLen]
	}
	w.u16(uint16(len(s)))
	w.buf = append(w.buf, s...)
}

// reader consumes big-endian fields with bounds checking.
type reader struct {
	buf []byte
	pos int
}

func (r *reader) need(n int) error {
	if r.pos+n > len(r.buf) {
		return ErrTruncated
	}
	return nil
}

func (r *reader) u8() (uint8, error) {
	if err := r.need(1); err != nil {
		return 0, err
	}
	v := r.buf[r.pos]
	r.pos++
	return v, nil
}

func (r *reader) u16() (uint16, error) {
	if err := r.need(2); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint16(r.buf[r.pos:])
	r.pos += 2
	return v, nil
}

func (r *reader) u32() (uint32, error) {
	if err := r.need(4); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint32(r.buf[r.pos:])
	r.pos += 4
	return v, nil
}

func (r *reader) u64() (uint64, error) {
	if err := r.need(8); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint64(r.buf[r.pos:])
	r.pos += 8
	return v, nil
}

func (r *reader) i64() (int64, error) {
	v, err := r.u64()
	return int64(v), err
}

func (r *reader) str() (string, error) {
	n, err := r.u16()
	if err != nil {
		return "", err
	}
	if n > maxStrLen {
		return "", fmt.Errorf("%w: string of %d bytes", ErrBadLength, n)
	}
	if err := r.need(int(n)); err != nil {
		return "", err
	}
	s := string(r.buf[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s, nil
}
