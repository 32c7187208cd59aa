package ofp

import (
	"bufio"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/chronus-sdn/chronus/internal/obs"
)

// Conn is a message-oriented view of a stream transport. It tallies
// sent/received messages and bytes; Stats reads the tallies, and
// SetMeter optionally mirrors them into registry counters.
//
// Outgoing messages go through a write queue: Queue encodes a message
// onto it and Flush hands everything queued to the transport in one
// write, so a burst (a switch's FlowMods and their barrier, a switch's
// replies to one read) costs one syscall. Send is Queue plus Flush. A
// message counts as sent, in Stats and the meter, when the write that
// carries it returns.
type Conn struct {
	rw     io.ReadWriteCloser
	br     *bufio.Reader
	cr     countingReader
	sendMu sync.Mutex
	out    []byte // queued encoded messages, guarded by sendMu
	outN   int64  // how many messages out holds

	sentMsgs, sentBytes atomic.Int64
	recvMsgs, recvBytes atomic.Int64

	meterMu sync.Mutex
	meter   *ConnMeter
}

// ConnStats is a snapshot of a connection's message and byte tallies.
type ConnStats struct {
	SentMsgs, SentBytes int64
	RecvMsgs, RecvBytes int64
}

// ConnMeter holds registry counters mirroring a connection's traffic;
// any field may be nil. Several connections may share one meter, which
// then aggregates across them.
type ConnMeter struct {
	SentMsgs, SentBytes *obs.Counter
	RecvMsgs, RecvBytes *obs.Counter
}

// NewConnMeter registers the four ofp connection counters on r (nil r
// yields a no-op meter).
func NewConnMeter(r *obs.Registry) *ConnMeter {
	if r != nil {
		r.Help("chronus_ofp_messages_total", "ofp messages by direction")
		r.Help("chronus_ofp_bytes_total", "ofp bytes by direction")
	}
	return &ConnMeter{
		SentMsgs:  r.Counter(`chronus_ofp_messages_total{dir="sent"}`),
		SentBytes: r.Counter(`chronus_ofp_bytes_total{dir="sent"}`),
		RecvMsgs:  r.Counter(`chronus_ofp_messages_total{dir="received"}`),
		RecvBytes: r.Counter(`chronus_ofp_bytes_total{dir="received"}`),
	}
}

// countingReader counts the bytes Decode actually consumes (the
// underlying bufio.Reader may buffer ahead; buffered-but-unread bytes
// are not counted).
type countingReader struct {
	r io.Reader
	n *atomic.Int64
}

func (c countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// NewConn wraps a stream (typically a net.Conn) with the codec. Reads are
// buffered; writes are whole-message and serialized, so Send, Queue and
// Flush are safe for concurrent use. Recv and Buffered must be called
// from a single goroutine.
func NewConn(rw io.ReadWriteCloser) *Conn {
	c := &Conn{rw: rw, br: bufio.NewReader(rw)}
	c.cr = countingReader{r: c.br, n: &c.recvBytes}
	return c
}

// Dial connects to a controller or switch agent over TCP. It blocks for
// as long as the OS-level connect does; use DialTimeout against peers
// that may be unresponsive.
func Dial(addr string) (*Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewConn(c), nil
}

// DialTimeout connects like Dial but gives up after timeout (zero or
// negative means no limit).
func DialTimeout(addr string, timeout time.Duration) (*Conn, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return NewConn(c), nil
}

// SetMeter mirrors the connection's tallies into registry counters from
// now on (past traffic is not backfilled). nil detaches the meter.
func (c *Conn) SetMeter(m *ConnMeter) {
	c.meterMu.Lock()
	c.meter = m
	c.meterMu.Unlock()
}

func (c *Conn) meterSnapshot() *ConnMeter {
	c.meterMu.Lock()
	m := c.meter
	c.meterMu.Unlock()
	return m
}

// Stats returns the connection's current tallies.
func (c *Conn) Stats() ConnStats {
	return ConnStats{
		SentMsgs:  c.sentMsgs.Load(),
		SentBytes: c.sentBytes.Load(),
		RecvMsgs:  c.recvMsgs.Load(),
		RecvBytes: c.recvBytes.Load(),
	}
}

// Send encodes and writes one message, together with any queued
// before it.
func (c *Conn) Send(m Msg) error {
	c.Queue(m)
	return c.Flush()
}

// Queue encodes m onto the write queue; nothing reaches the transport
// until the next Flush (or Send). Queued messages keep their order.
func (c *Conn) Queue(m Msg) {
	c.sendMu.Lock()
	c.out = appendMsg(c.out, m)
	c.outN++
	c.sendMu.Unlock()
}

// Flush writes every queued message in one write. On a write error the
// queue is discarded and none of its messages count as sent.
func (c *Conn) Flush() error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	if c.outN == 0 {
		return nil
	}
	msgs, size := c.outN, int64(len(c.out))
	_, err := c.rw.Write(c.out)
	c.out, c.outN = c.out[:0], 0
	if err != nil {
		return err
	}
	c.sentMsgs.Add(msgs)
	c.sentBytes.Add(size)
	if mt := c.meterSnapshot(); mt != nil {
		mt.SentMsgs.Add(msgs)
		mt.SentBytes.Add(size)
	}
	return nil
}

// Recv reads and decodes one message.
func (c *Conn) Recv() (Msg, error) {
	before := c.recvBytes.Load()
	m, err := Decode(c.cr)
	if err != nil {
		return nil, err
	}
	c.recvMsgs.Add(1)
	if mt := c.meterSnapshot(); mt != nil {
		mt.RecvMsgs.Inc()
		mt.RecvBytes.Add(c.recvBytes.Load() - before)
	}
	return m, nil
}

// Buffered reports how many received bytes are waiting to be decoded
// without another read from the transport. A server that gets 0 has
// answered everything its peer sent so far and can Flush.
func (c *Conn) Buffered() int { return c.br.Buffered() }

// Close closes the transport.
func (c *Conn) Close() error { return c.rw.Close() }
