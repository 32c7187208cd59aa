package ofp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"github.com/chronus-sdn/chronus/internal/obs"
)

func roundTrip(t *testing.T, m Msg) Msg {
	t.Helper()
	buf := Encode(m)
	got, err := Decode(bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("decode %v: %v", m.Type(), err)
	}
	return got
}

func TestRoundTripAllTypes(t *testing.T) {
	msgs := []Msg{
		&Hello{XID: 1},
		&EchoRequest{XID: 2, Payload: "ping"},
		&EchoReply{XID: 3, Payload: "pong"},
		&FeaturesRequest{XID: 4},
		&FeaturesReply{XID: 5, DatapathID: 0xDEADBEEF, Name: "R7", TimedUpdates: true},
		&FlowMod{XID: 6, Command: FlowModify, Flow: "f0", Tag: 2, Action: ActionOutput, NextHop: 9, ExecuteAt: 123456},
		&FlowMod{XID: 7, Command: FlowAdd, Flow: "f1", Tag: 0, Action: ActionToHost, NextHop: -1, ExecuteAt: 0},
		&BarrierRequest{XID: 8},
		&BarrierReply{XID: 9},
		&StatsRequest{XID: 10, Kind: StatsPorts},
		&StatsReply{XID: 11, Kind: StatsPorts, At: 1234,
			Ports: []PortStat{{PeerID: 3, Bytes: 999}, {PeerID: 4, Bytes: 0}},
		},
		&StatsReply{XID: 12, Kind: StatsFlows,
			Flows: []FlowStat{{Flow: "f0", Tag: 1, Bytes: 42}},
		},
		&ErrorMsg{XID: 13, Code: ErrCodeBadFlowMod, Message: "no such port"},
		&PacketIn{XID: 14, SwitchID: 4, Flow: "f0", Tag: 3, Reason: ReasonTTLExpired},
	}
	for _, m := range msgs {
		got := roundTrip(t, m)
		if !reflect.DeepEqual(m, got) {
			t.Errorf("%v: round trip mismatch:\n  sent %+v\n  got  %+v", m.Type(), m, got)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	// Bad version.
	buf := Encode(&Hello{XID: 1})
	buf[0] = 99
	if _, err := Decode(bytes.NewReader(buf)); err == nil {
		t.Fatal("bad version accepted")
	}
	// Bad type.
	buf = Encode(&Hello{XID: 1})
	buf[1] = 200
	if _, err := Decode(bytes.NewReader(buf)); err == nil {
		t.Fatal("bad type accepted")
	}
	// Length below header size.
	buf = Encode(&Hello{XID: 1})
	buf[2], buf[3] = 0, 4
	if _, err := Decode(bytes.NewReader(buf)); err == nil {
		t.Fatal("short length accepted")
	}
	// Truncated stream.
	buf = Encode(&FlowMod{XID: 2, Command: FlowAdd, Flow: "abcdef", Action: ActionOutput})
	if _, err := Decode(bytes.NewReader(buf[:len(buf)-3])); err == nil {
		t.Fatal("truncated message accepted")
	}
	// Trailing garbage inside the declared length.
	buf = Encode(&Hello{XID: 3})
	buf = append(buf, 0xFF)
	buf[3] += 1
	if _, err := Decode(bytes.NewReader(buf)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// EOF on empty stream surfaces as io.EOF, not a panic.
	if _, err := Decode(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty stream: err = %v, want io.EOF", err)
	}
}

func TestBackToBackMessages(t *testing.T) {
	var stream bytes.Buffer
	sent := []Msg{
		&Hello{XID: 1},
		&FlowMod{XID: 2, Command: FlowModify, Flow: "x", Tag: 7, Action: ActionOutput, NextHop: 3, ExecuteAt: -5},
		&BarrierRequest{XID: 3},
	}
	for _, m := range sent {
		stream.Write(Encode(m))
	}
	for i, want := range sent {
		got, err := Decode(&stream)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("message %d mismatch", i)
		}
	}
}

// TestFlowModRoundTripProperty fuzzes FlowMod fields through the codec.
func TestFlowModRoundTripProperty(t *testing.T) {
	f := func(xid uint32, cmd uint8, flow string, tag uint16, action uint8, nh int32, at int64) bool {
		if len(flow) > maxStrLen {
			flow = flow[:maxStrLen]
		}
		m := &FlowMod{
			XID:       xid,
			Command:   FlowModCommand(cmd),
			Flow:      flow,
			Tag:       tag,
			Action:    ActionKind(action),
			NextHop:   nh,
			ExecuteAt: at,
		}
		got, err := Decode(bytes.NewReader(Encode(m)))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(m, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestConnOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	done := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		conn := NewConn(c)
		defer conn.Close()
		for {
			m, err := conn.Recv()
			if err != nil {
				done <- nil // client closed
				return
			}
			switch req := m.(type) {
			case *EchoRequest:
				if err := conn.Send(&EchoReply{XID: req.XID, Payload: req.Payload}); err != nil {
					done <- err
					return
				}
			case *BarrierRequest:
				if err := conn.Send(&BarrierReply{XID: req.XID}); err != nil {
					done <- err
					return
				}
			}
		}
	}()

	conn, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(&EchoRequest{XID: 7, Payload: "hi"}); err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(&BarrierRequest{XID: 8}); err != nil {
		t.Fatal(err)
	}
	m1, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := m1.(*EchoReply); !ok || r.XID != 7 || r.Payload != "hi" {
		t.Fatalf("reply 1 = %+v", m1)
	}
	m2, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := m2.(*BarrierReply); !ok || r.XID != 8 {
		t.Fatalf("reply 2 = %+v", m2)
	}
	conn.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestDecodeNeverPanicsOnGarbage: random byte streams either decode into a
// valid message or fail with an error — never a panic or unbounded alloc.
func TestDecodeNeverPanicsOnGarbage(t *testing.T) {
	f := func(raw []byte) bool {
		_, _ = Decode(bytes.NewReader(raw))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	// Adversarial header: valid version/type but huge declared length with
	// a short body.
	hdr := Encode(&Hello{XID: 1})
	hdr[2], hdr[3] = 0xFF, 0xFF
	if _, err := Decode(bytes.NewReader(hdr)); err == nil {
		t.Fatal("oversized declared length accepted")
	}
}

// TestDecodeValidHeaderRandomBody: random bodies under each valid type
// never panic.
func TestDecodeValidHeaderRandomBody(t *testing.T) {
	f := func(typ uint8, body []byte) bool {
		if len(body) > 1024 {
			body = body[:1024]
		}
		msg := make([]byte, 8+len(body))
		msg[0] = Version
		msg[1] = 1 + typ%12
		msg[2] = byte(len(msg) >> 8)
		msg[3] = byte(len(msg))
		copy(msg[8:], body)
		_, _ = Decode(bytes.NewReader(msg))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// recordingRW is an in-memory transport that keeps every Write call.
type recordingRW struct {
	writes [][]byte
	fail   error // returned by Write when set
}

func (r *recordingRW) Read([]byte) (int, error) { return 0, io.EOF }
func (r *recordingRW) Close() error             { return nil }
func (r *recordingRW) Write(p []byte) (int, error) {
	if r.fail != nil {
		return 0, r.fail
	}
	r.writes = append(r.writes, append([]byte(nil), p...))
	return len(p), nil
}

// TestQueuedBurstMatchesSends: a burst queued with Queue and written by
// one Flush puts on the wire exactly the bytes per-message Send does,
// in one write instead of one per message; Stats and the meter count the
// messages when the write returns, not when they are queued. A failed
// flush discards the queue and counts nothing.
func TestQueuedBurstMatchesSends(t *testing.T) {
	burst := []Msg{
		&FlowMod{XID: 1, Command: FlowModify, Flow: "f", Tag: 2, Action: ActionOutput, NextHop: 4, ExecuteAt: 90},
		&FlowMod{XID: 2, Command: FlowDelete, Flow: "f", Tag: 1},
		&StatsRequest{XID: 3, Kind: StatsPorts},
		&BarrierRequest{XID: 4},
	}
	var perMsg recordingRW
	sender := NewConn(&perMsg)
	for _, m := range burst {
		if err := sender.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	if len(perMsg.writes) != len(burst) {
		t.Fatalf("Send made %d writes for %d messages", len(perMsg.writes), len(burst))
	}

	var queued recordingRW
	reg := obs.NewRegistry()
	c := NewConn(&queued)
	c.SetMeter(NewConnMeter(reg))
	for _, m := range burst {
		c.Queue(m)
	}
	if st := c.Stats(); st.SentMsgs != 0 || st.SentBytes != 0 || len(queued.writes) != 0 {
		t.Fatalf("queued but not flushed: %d writes, stats %+v", len(queued.writes), st)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(queued.writes) != 1 {
		t.Fatalf("Flush made %d writes, want 1", len(queued.writes))
	}
	if want := bytes.Join(perMsg.writes, nil); !bytes.Equal(queued.writes[0], want) {
		t.Fatalf("flushed burst differs from per-message sends:\n got %x\nwant %x", queued.writes[0], want)
	}
	wantBytes := int64(len(queued.writes[0]))
	if st := c.Stats(); st != sender.Stats() || st.SentMsgs != int64(len(burst)) || st.SentBytes != wantBytes {
		t.Fatalf("stats after flush %+v, per-message sender %+v", st, sender.Stats())
	}
	if m := reg.Counter(`chronus_ofp_messages_total{dir="sent"}`).Value(); m != int64(len(burst)) {
		t.Fatalf("meter counted %d messages, want %d", m, len(burst))
	}
	if b := reg.Counter(`chronus_ofp_bytes_total{dir="sent"}`).Value(); b != wantBytes {
		t.Fatalf("meter counted %d bytes, want %d", b, wantBytes)
	}
	// An empty queue flushes without touching the transport.
	if err := c.Flush(); err != nil || len(queued.writes) != 1 {
		t.Fatalf("empty flush: %d writes, err %v", len(queued.writes), err)
	}

	queued.fail = io.ErrClosedPipe
	c.Queue(&BarrierRequest{XID: 5})
	if err := c.Flush(); err != io.ErrClosedPipe {
		t.Fatalf("failed flush returned %v", err)
	}
	if st := c.Stats(); st.SentMsgs != int64(len(burst)) {
		t.Fatalf("failed flush counted: %+v", st)
	}
	queued.fail = nil
	if err := c.Flush(); err != nil || len(queued.writes) != 1 {
		t.Fatalf("queue kept after a failed flush: %d writes, err %v", len(queued.writes), err)
	}
}

// TestDecodeRefusesOverlongString: the writer truncates a string field
// to maxStrLen, so the reader refuses a longer one rather than accept a
// message that would not encode back to itself.
func TestDecodeRefusesOverlongString(t *testing.T) {
	msg := Encode(&EchoRequest{XID: 1, Payload: strings.Repeat("x", maxStrLen)})
	if _, err := Decode(bytes.NewReader(msg)); err != nil {
		t.Fatalf("string of maxStrLen bytes: %v", err)
	}
	// One byte more, announced in both the string and the header length.
	body := append(msg[headerLen+2:], 'x')
	long := binary.BigEndian.AppendUint16(append([]byte(nil), msg[:headerLen]...), maxStrLen+1)
	long = append(long, body...)
	binary.BigEndian.PutUint16(long[2:4], uint16(len(long)))
	if _, err := Decode(bytes.NewReader(long)); !errors.Is(err, ErrBadLength) {
		t.Fatalf("string of maxStrLen+1 bytes: err = %v, want ErrBadLength", err)
	}
}
