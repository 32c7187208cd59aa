package ofp

import "fmt"

// Hello opens a session.
type Hello struct{ XID uint32 }

// Type implements Msg.
func (*Hello) Type() MsgType { return TypeHello }

// Xid implements Msg.
func (m *Hello) Xid() uint32              { return m.XID }
func (m *Hello) encodeBody(*writer)       {}
func (m *Hello) decodeBody(*reader) error { return nil }

// EchoRequest is a liveness probe carrying opaque payload.
type EchoRequest struct {
	XID     uint32
	Payload string
}

// Type implements Msg.
func (*EchoRequest) Type() MsgType { return TypeEchoRequest }

// Xid implements Msg.
func (m *EchoRequest) Xid() uint32          { return m.XID }
func (m *EchoRequest) encodeBody(w *writer) { w.str(m.Payload) }
func (m *EchoRequest) decodeBody(r *reader) error {
	var err error
	m.Payload, err = r.str()
	return err
}

// EchoReply answers an EchoRequest with the same payload.
type EchoReply struct {
	XID     uint32
	Payload string
}

// Type implements Msg.
func (*EchoReply) Type() MsgType { return TypeEchoReply }

// Xid implements Msg.
func (m *EchoReply) Xid() uint32          { return m.XID }
func (m *EchoReply) encodeBody(w *writer) { w.str(m.Payload) }
func (m *EchoReply) decodeBody(r *reader) error {
	var err error
	m.Payload, err = r.str()
	return err
}

// FeaturesRequest asks a switch for its identity.
type FeaturesRequest struct{ XID uint32 }

// Type implements Msg.
func (*FeaturesRequest) Type() MsgType { return TypeFeaturesRequest }

// Xid implements Msg.
func (m *FeaturesRequest) Xid() uint32              { return m.XID }
func (m *FeaturesRequest) encodeBody(*writer)       {}
func (m *FeaturesRequest) decodeBody(*reader) error { return nil }

// FeaturesReply identifies a switch.
type FeaturesReply struct {
	XID        uint32
	DatapathID uint64
	Name       string
	// TimedUpdates advertises support for FlowMod.ExecuteAt (the Time4
	// capability Chronus requires).
	TimedUpdates bool
}

// Type implements Msg.
func (*FeaturesReply) Type() MsgType { return TypeFeaturesReply }

// Xid implements Msg.
func (m *FeaturesReply) Xid() uint32 { return m.XID }
func (m *FeaturesReply) encodeBody(w *writer) {
	w.u64(m.DatapathID)
	w.str(m.Name)
	if m.TimedUpdates {
		w.u8(1)
	} else {
		w.u8(0)
	}
}
func (m *FeaturesReply) decodeBody(r *reader) error {
	var err error
	if m.DatapathID, err = r.u64(); err != nil {
		return err
	}
	if m.Name, err = r.str(); err != nil {
		return err
	}
	b, err := r.u8()
	if err != nil {
		return err
	}
	m.TimedUpdates = b != 0
	return nil
}

// FlowModCommand selects the table operation.
type FlowModCommand uint8

// FlowMod commands.
const (
	FlowAdd FlowModCommand = iota + 1
	FlowModify
	FlowDelete
)

func (c FlowModCommand) String() string {
	switch c {
	case FlowAdd:
		return "add"
	case FlowModify:
		return "modify"
	case FlowDelete:
		return "delete"
	default:
		return fmt.Sprintf("FlowModCommand(%d)", uint8(c))
	}
}

// ActionKind selects what a rule does.
type ActionKind uint8

// Action kinds.
const (
	ActionOutput ActionKind = iota + 1
	ActionToHost
)

// FlowMod installs, modifies or deletes the exact-match entry for
// (Flow, Tag). ExecuteAt > 0 schedules the application at the switch's
// local clock reading ExecuteAt (timed update); 0 means immediate.
type FlowMod struct {
	XID       uint32
	Command   FlowModCommand
	Flow      string
	Tag       uint16
	Action    ActionKind
	NextHop   int32
	ExecuteAt int64
}

// Type implements Msg.
func (*FlowMod) Type() MsgType { return TypeFlowMod }

// Xid implements Msg.
func (m *FlowMod) Xid() uint32 { return m.XID }
func (m *FlowMod) encodeBody(w *writer) {
	w.u8(uint8(m.Command))
	w.str(m.Flow)
	w.u16(m.Tag)
	w.u8(uint8(m.Action))
	w.u32(uint32(m.NextHop))
	w.i64(m.ExecuteAt)
}
func (m *FlowMod) decodeBody(r *reader) error {
	c, err := r.u8()
	if err != nil {
		return err
	}
	m.Command = FlowModCommand(c)
	if m.Flow, err = r.str(); err != nil {
		return err
	}
	if m.Tag, err = r.u16(); err != nil {
		return err
	}
	a, err := r.u8()
	if err != nil {
		return err
	}
	m.Action = ActionKind(a)
	nh, err := r.u32()
	if err != nil {
		return err
	}
	m.NextHop = int32(nh)
	m.ExecuteAt, err = r.i64()
	return err
}

// BarrierRequest asks the switch to confirm that all preceding messages
// have been processed (timed FlowMods count as processed once scheduled).
type BarrierRequest struct{ XID uint32 }

// Type implements Msg.
func (*BarrierRequest) Type() MsgType { return TypeBarrierRequest }

// Xid implements Msg.
func (m *BarrierRequest) Xid() uint32              { return m.XID }
func (m *BarrierRequest) encodeBody(*writer)       {}
func (m *BarrierRequest) decodeBody(*reader) error { return nil }

// BarrierReply confirms a BarrierRequest.
type BarrierReply struct{ XID uint32 }

// Type implements Msg.
func (*BarrierReply) Type() MsgType { return TypeBarrierReply }

// Xid implements Msg.
func (m *BarrierReply) Xid() uint32              { return m.XID }
func (m *BarrierReply) encodeBody(*writer)       {}
func (m *BarrierReply) decodeBody(*reader) error { return nil }

// StatsKind selects the statistics subject.
type StatsKind uint8

// Stats kinds.
const (
	StatsPorts StatsKind = iota + 1
	StatsFlows
)

// StatsRequest asks for counters.
type StatsRequest struct {
	XID  uint32
	Kind StatsKind
}

// Type implements Msg.
func (*StatsRequest) Type() MsgType { return TypeStatsRequest }

// Xid implements Msg.
func (m *StatsRequest) Xid() uint32          { return m.XID }
func (m *StatsRequest) encodeBody(w *writer) { w.u8(uint8(m.Kind)) }
func (m *StatsRequest) decodeBody(r *reader) error {
	k, err := r.u8()
	m.Kind = StatsKind(k)
	return err
}

// PortStat reports the byte counter of one egress port (identified by the
// neighbour switch it leads to).
type PortStat struct {
	PeerID uint32
	Bytes  uint64
}

// FlowStat reports the byte counter of one flow-table entry.
type FlowStat struct {
	Flow  string
	Tag   uint16
	Bytes uint64
}

// StatsReply answers a StatsRequest. At is the tick the switch read its
// counters at, so a poller divides a counter delta by the span it covers.
type StatsReply struct {
	XID   uint32
	Kind  StatsKind
	At    int64
	Ports []PortStat
	Flows []FlowStat
}

// Type implements Msg.
func (*StatsReply) Type() MsgType { return TypeStatsReply }

// Xid implements Msg.
func (m *StatsReply) Xid() uint32 { return m.XID }
func (m *StatsReply) encodeBody(w *writer) {
	w.u8(uint8(m.Kind))
	w.i64(m.At)
	w.u16(uint16(len(m.Ports)))
	for _, p := range m.Ports {
		w.u32(p.PeerID)
		w.u64(p.Bytes)
	}
	w.u16(uint16(len(m.Flows)))
	for _, f := range m.Flows {
		w.str(f.Flow)
		w.u16(f.Tag)
		w.u64(f.Bytes)
	}
}
func (m *StatsReply) decodeBody(r *reader) error {
	k, err := r.u8()
	if err != nil {
		return err
	}
	m.Kind = StatsKind(k)
	if m.At, err = r.i64(); err != nil {
		return err
	}
	np, err := r.u16()
	if err != nil {
		return err
	}
	for i := 0; i < int(np); i++ {
		var p PortStat
		if p.PeerID, err = r.u32(); err != nil {
			return err
		}
		if p.Bytes, err = r.u64(); err != nil {
			return err
		}
		m.Ports = append(m.Ports, p)
	}
	nf, err := r.u16()
	if err != nil {
		return err
	}
	for i := 0; i < int(nf); i++ {
		var f FlowStat
		if f.Flow, err = r.str(); err != nil {
			return err
		}
		if f.Tag, err = r.u16(); err != nil {
			return err
		}
		if f.Bytes, err = r.u64(); err != nil {
			return err
		}
		m.Flows = append(m.Flows, f)
	}
	return nil
}

// ErrorCode classifies protocol errors.
type ErrorCode uint16

// Error codes.
const (
	ErrCodeBadRequest ErrorCode = iota + 1
	ErrCodeBadFlowMod
	ErrCodeUnsupported
)

// ErrorMsg reports a protocol-level failure for the message with the same
// transaction ID.
type ErrorMsg struct {
	XID     uint32
	Code    ErrorCode
	Message string
}

// Type implements Msg.
func (*ErrorMsg) Type() MsgType { return TypeError }

// Xid implements Msg.
func (m *ErrorMsg) Xid() uint32 { return m.XID }
func (m *ErrorMsg) encodeBody(w *writer) {
	w.u16(uint16(m.Code))
	w.str(m.Message)
}
func (m *ErrorMsg) decodeBody(r *reader) error {
	c, err := r.u16()
	if err != nil {
		return err
	}
	m.Code = ErrorCode(c)
	m.Message, err = r.str()
	return err
}

// PacketInReason classifies why a switch punted to the controller.
type PacketInReason uint8

// PacketIn reasons.
const (
	// ReasonNoMatch: traffic arrived with no matching flow-table entry.
	ReasonNoMatch PacketInReason = iota + 1
	// ReasonTTLExpired: traffic was dropped after its hop budget ran out
	// (a forwarding loop in the data plane).
	ReasonTTLExpired
)

// PacketIn notifies the controller that a switch is dropping traffic: the
// asynchronous switch-to-controller path of OpenFlow, used here to surface
// blackholes and loops the moment they appear.
type PacketIn struct {
	XID      uint32
	SwitchID uint32
	Flow     string
	Tag      uint16
	Reason   PacketInReason
}

// Type implements Msg.
func (*PacketIn) Type() MsgType { return TypePacketIn }

// Xid implements Msg.
func (m *PacketIn) Xid() uint32 { return m.XID }
func (m *PacketIn) encodeBody(w *writer) {
	w.u32(m.SwitchID)
	w.str(m.Flow)
	w.u16(m.Tag)
	w.u8(uint8(m.Reason))
}
func (m *PacketIn) decodeBody(r *reader) error {
	var err error
	if m.SwitchID, err = r.u32(); err != nil {
		return err
	}
	if m.Flow, err = r.str(); err != nil {
		return err
	}
	if m.Tag, err = r.u16(); err != nil {
		return err
	}
	b, err := r.u8()
	m.Reason = PacketInReason(b)
	return err
}
