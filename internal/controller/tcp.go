package controller

import (
	"errors"
	"fmt"

	"github.com/chronus-sdn/chronus/internal/graph"
	"github.com/chronus-sdn/chronus/internal/ofp"
)

// ErrHandshake is returned when the hello/features exchange goes off
// script (wrong message type where a Hello or FeaturesReply was due).
var ErrHandshake = errors.New("controller: handshake failed")

// ErrTimedUpdatesUnsupported is returned when a switch's FeaturesReply
// does not advertise the Time4 timed-update capability Chronus schedules
// against; attaching such a switch would silently miss every timed
// FlowMod, so the attach is refused instead.
var ErrTimedUpdatesUnsupported = errors.New("controller: switch does not support timed updates")

// tcpSession sends messages over a real stream connection; a background
// reader feeds replies into the controller. Ordering and asynchrony are
// the transport's own. Send only queues on the connection: the
// controller flushes every session it queued on before it waits for a
// reply (and when an operation fails before it waits, see
// flushOnError), so a switch's FlowMods and its barrier leave in one
// write.
type tcpSession struct {
	conn   *ofp.Conn
	queued bool // on c.unflushed; guarded by the controller's mu
}

func (s *tcpSession) Send(m ofp.Msg) error {
	s.conn.Queue(m)
	return nil
}

// AttachTCP registers a switch reachable over conn and starts the reply
// reader, which runs until the connection closes. It performs the OpenFlow
// hello exchange and a features check (the switch must support timed
// updates), returning the switch's announced name. When the reader later
// exits on a connection error the session is detached again and the
// disconnect surfaced through Disconnects and Options.OnDisconnect, so
// executors fail fast with ErrNoSession instead of barriering forever
// against a gone switch.
func (c *Controller) AttachTCP(id graph.NodeID, conn *ofp.Conn) (string, error) {
	if err := conn.Send(&ofp.Hello{XID: 0}); err != nil {
		return "", err
	}
	m, err := conn.Recv()
	if err != nil {
		return "", err
	}
	if _, ok := m.(*ofp.Hello); !ok {
		return "", fmt.Errorf("%w: expected hello, got %v", ErrHandshake, m.Type())
	}
	if err := conn.Send(&ofp.FeaturesRequest{XID: 1}); err != nil {
		return "", err
	}
	m, err = conn.Recv()
	if err != nil {
		return "", err
	}
	feats, ok := m.(*ofp.FeaturesReply)
	if !ok {
		return "", fmt.Errorf("%w: expected features reply, got %v", ErrHandshake, m.Type())
	}
	if !feats.TimedUpdates {
		return "", fmt.Errorf("%w: %q (datapath %d)", ErrTimedUpdatesUnsupported, feats.Name, feats.DatapathID)
	}
	s := &tcpSession{conn: conn}
	c.AttachSession(id, s)
	go func() {
		for {
			m, err := conn.Recv()
			if err != nil {
				c.sessionClosed(id, s, err)
				return
			}
			c.RecordReply(m)
		}
	}()
	return feats.Name, nil
}
