// Package controller implements the Chronus controller: session management
// toward switch agents, barrier orchestration, the timed-update executor of
// the paper's Algorithm 5 (both the time-triggered variant and the literal
// barrier-paced loop), the two-phase executor for the TP baseline, and the
// byte-counter bandwidth monitor used to draw Fig. 6.
//
// The controller drives a Harness, which owns the simulation kernel and the
// emulated network and serializes all access; control messages travel
// through Session objects that model (virtual mode) or are (TCP mode) an
// asynchronous channel, so update commands reach switches out of order and
// after unpredictable latency — the root cause of the consistency problem
// the paper addresses.
package controller

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/chronus-sdn/chronus/internal/emu"
	"github.com/chronus-sdn/chronus/internal/graph"
	"github.com/chronus-sdn/chronus/internal/obs"
	"github.com/chronus-sdn/chronus/internal/ofp"
	"github.com/chronus-sdn/chronus/internal/sim"
	"github.com/chronus-sdn/chronus/internal/switchd"
	"github.com/chronus-sdn/chronus/internal/timesync"
)

// Harness owns the kernel and the emulated network and serializes all
// access to them. Virtual time advances only through the harness.
type Harness struct {
	mu  sync.Mutex
	K   *sim.Kernel
	Net *emu.Network
	G   *graph.Graph
}

// NewHarness builds the emulated network for g.
func NewHarness(g *graph.Graph) *Harness {
	k := sim.NewKernel()
	return &Harness{K: k, Net: emu.New(g, k), G: g}
}

// Do runs f with exclusive access to the kernel and network.
func (h *Harness) Do(f func()) {
	h.mu.Lock()
	defer h.mu.Unlock()
	f()
}

// Now returns the current virtual time.
func (h *Harness) Now() sim.Time {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.K.Now()
}

// AdvanceTo runs the emulation up to virtual time t.
func (h *Harness) AdvanceTo(t sim.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.K.RunUntil(t)
}

// AdvanceBy runs the emulation d ticks forward.
func (h *Harness) AdvanceBy(d sim.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.K.RunUntil(h.K.Now() + d)
}

// Session is an asynchronous control channel to one switch agent.
type Session interface {
	// Send delivers m toward the switch; replies come back through the
	// controller's RecordReply.
	Send(m ofp.Msg) error
}

// Options configures a Controller.
type Options struct {
	// Seed drives the control-channel latency model.
	Seed int64
	// MinLatency/MaxLatency bound the per-message control latency in
	// ticks for virtual sessions (defaults 1..8; the spread is the
	// data-plane asynchrony of the paper's motivating example).
	MinLatency, MaxLatency sim.Time
	// OnDisconnect, when set, is called (from the session's reader
	// goroutine) after a connected session drops and has been detached;
	// err is the read error that ended the session.
	OnDisconnect func(id graph.NodeID, err error)
	// Obs receives controller counters (FlowMods sent, barrier round
	// trips and their virtual-time latency, disconnects, stats polls,
	// PacketIns). When nil the controller creates a private registry, so
	// the tallies behind Disconnects() always exist.
	Obs *obs.Registry
	// Trace receives control-plane events (FlowMod sends, barrier spans,
	// disconnects) stamped with virtual time; nil disables tracing.
	Trace *obs.Tracer
}

// RegisterMetrics pre-registers the controller metric families on r so
// they appear in expositions before the first control message.
func RegisterMetrics(r *obs.Registry) {
	newCtlMetrics(r)
}

// ctlMetrics bundles the controller's registry instruments.
type ctlMetrics struct {
	flowMods    *obs.Counter
	barriers    *obs.Counter
	barrierRTT  *obs.Histogram
	disconnects *obs.Counter
	statsPolls  *obs.Counter
	packetIns   *obs.Counter
}

func newCtlMetrics(r *obs.Registry) ctlMetrics {
	r.Help("chronus_controller_flowmods_sent_total", "FlowMod messages sent to switches")
	r.Help("chronus_controller_barriers_total", "barrier rounds issued")
	r.Help("chronus_controller_barrier_rtt_ticks", "barrier round-trip latency in virtual ticks")
	r.Help("chronus_controller_disconnects_total", "sessions detached after transport failure")
	r.Help("chronus_controller_stats_polls_total", "port-statistics polls")
	r.Help("chronus_controller_packetins_total", "asynchronous PacketIn notifications received")
	return ctlMetrics{
		flowMods:    r.Counter("chronus_controller_flowmods_sent_total"),
		barriers:    r.Counter("chronus_controller_barriers_total"),
		barrierRTT:  r.Histogram("chronus_controller_barrier_rtt_ticks", []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}),
		disconnects: r.Counter("chronus_controller_disconnects_total"),
		statsPolls:  r.Counter("chronus_controller_stats_polls_total"),
		packetIns:   r.Counter("chronus_controller_packetins_total"),
	}
}

// Controller manages sessions and executes update plans.
type Controller struct {
	h    *Harness
	opts Options
	rng  *rand.Rand
	met  ctlMetrics

	mu        sync.Mutex
	sessions  map[graph.NodeID]Session
	replies   map[uint32]ofp.Msg
	asyncErrs []*ofp.ErrorMsg
	// viaKernel marks outstanding requests whose replies arrive as kernel
	// events (virtual sessions); waiting for those may step the kernel,
	// while waiting for wire replies must not advance virtual time (it
	// would fire future timed updates early).
	viaKernel map[uint32]bool
	packetIns []*ofp.PacketIn
	// unflushed lists the TCP sessions holding queued messages, in the
	// order they were first queued on; flush writes them out.
	unflushed []*tcpSession
	nextXID   uint32
	notify    chan struct{}
	// spanBase and spanStack track the ambient parent span for control
	// operations: spanBase is set by the embedding server around an
	// update (SetSpan), spanStack by Execute*/Barrier around their own
	// nested spans. curSpan reads the innermost.
	spanBase  obs.SpanID
	spanStack []obs.SpanID
}

// New builds a controller on the harness.
func New(h *Harness, opts Options) *Controller {
	if opts.MaxLatency <= 0 {
		opts.MinLatency, opts.MaxLatency = 1, 8
	}
	if opts.MinLatency < 0 || opts.MinLatency > opts.MaxLatency {
		opts.MinLatency = opts.MaxLatency
	}
	if opts.Obs == nil {
		// A private registry keeps the counters behind Disconnects()
		// (and the rest of the tallies) alive without requiring every
		// caller to care about telemetry.
		opts.Obs = obs.NewRegistry()
	}
	return &Controller{
		h:         h,
		opts:      opts,
		rng:       rand.New(rand.NewSource(opts.Seed)),
		met:       newCtlMetrics(opts.Obs),
		sessions:  make(map[graph.NodeID]Session),
		replies:   make(map[uint32]ofp.Msg),
		viaKernel: make(map[uint32]bool),
		notify:    make(chan struct{}, 1),
	}
}

// AttachAll creates an in-process agent and virtual session for every
// switch in the topology. clock may be nil for perfect clocks.
func (c *Controller) AttachAll(clock *timesync.Ensemble) {
	for _, id := range c.h.G.Nodes() {
		c.Attach(id, clock)
	}
}

// Attach creates the agent and virtual session for one switch. The
// agent inherits the controller's telemetry sinks.
func (c *Controller) Attach(id graph.NodeID, clock *timesync.Ensemble) {
	agent := switchd.New(c.h.Net, id, clock)
	agent.SetObs(c.opts.Obs, c.opts.Trace)
	// Asynchronous switch-to-controller notifications (PacketIn) travel
	// the same virtual channel as replies. The miss handler fires inside a
	// kernel event, so scheduling the delivery is safe here.
	agent.SetNotify(func(m ofp.Msg) {
		c.h.K.After(c.latency(), func() { c.RecordReply(m) })
	})
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sessions[id] = &virtualSession{c: c, agent: agent}
}

// PacketIns returns the asynchronous switch notifications received so far
// (drops due to missing rules or TTL expiry).
func (c *Controller) PacketIns() []*ofp.PacketIn {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*ofp.PacketIn(nil), c.packetIns...)
}

// AttachSession registers an externally managed session (e.g. TCP).
func (c *Controller) AttachSession(id graph.NodeID, s Session) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sessions[id] = s
}

// Disconnects reports how many attached sessions have been detached
// because their transport failed (see sessionClosed). It reads the
// chronus_controller_disconnects_total registry counter.
func (c *Controller) Disconnects() int {
	return int(c.met.disconnects.Value())
}

// sessionClosed detaches a dead session: called by a session's reader
// goroutine when its transport errors out. The registered session is
// removed only if it still is s — a reconnect may already have attached a
// replacement, which must survive the old reader's exit. The disconnect is
// surfaced through the Disconnects counter and Options.OnDisconnect so
// executors and operators learn the switch is gone instead of barriering
// against it forever.
func (c *Controller) sessionClosed(id graph.NodeID, s Session, err error) {
	c.mu.Lock()
	if cur, ok := c.sessions[id]; !ok || cur != s {
		c.mu.Unlock()
		return
	}
	delete(c.sessions, id)
	c.met.disconnects.Inc()
	cb := c.opts.OnDisconnect
	c.mu.Unlock()
	if c.opts.Trace != nil {
		c.opts.Trace.Point(int64(c.h.Now()), obs.EvCtlDisconnect,
			obs.A(obs.KeySwitch, c.h.G.Name(id)), obs.A("err", err.Error()))
	}
	if cb != nil {
		cb(id, err)
	}
	// Wake any await() so it re-checks instead of sleeping out its timeout
	// against replies that can no longer arrive.
	select {
	case c.notify <- struct{}{}:
	default:
	}
}

// RecordReply stores a reply arriving from any session and wakes waiters.
// Protocol errors are additionally collected so that the next barrier
// surfaces them even when the failed request itself is not being awaited
// (FlowMods are fire-and-forget until the barrier).
func (c *Controller) RecordReply(m ofp.Msg) {
	c.mu.Lock()
	switch v := m.(type) {
	case *ofp.PacketIn:
		c.packetIns = append(c.packetIns, v)
		c.met.packetIns.Inc()
	case *ofp.ErrorMsg:
		c.replies[m.Xid()] = m
		c.asyncErrs = append(c.asyncErrs, v)
	default:
		c.replies[m.Xid()] = m
	}
	c.mu.Unlock()
	select {
	case c.notify <- struct{}{}:
	default:
	}
}

// takeAsyncErrors drains the collected protocol errors.
func (c *Controller) takeAsyncErrors() []*ofp.ErrorMsg {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.asyncErrs
	c.asyncErrs = nil
	return out
}

// virtualSession delivers messages through the kernel with random control
// latency; replies travel back with independent latency. Like the TCP
// channel it models, the session is FIFO in each direction: a message never
// overtakes an earlier one on the same session (this is what gives the
// OpenFlow barrier its meaning), while messages to different switches
// arrive in arbitrary relative order.
type virtualSession struct {
	c       *Controller
	agent   *switchd.Agent
	inHead  sim.Time // earliest permissible next delivery to the switch
	outHead sim.Time // earliest permissible next reply arrival
}

func (s *virtualSession) Send(m ofp.Msg) error {
	c := s.c
	c.h.Do(func() {
		at := c.h.K.Now() + c.latency()
		if at < s.inHead {
			at = s.inHead
		}
		s.inHead = at
		c.h.K.At(at, func() {
			replies := s.agent.Handle(m)
			for _, r := range replies {
				r := r
				back := c.h.K.Now() + c.latency()
				if back < s.outHead {
					back = s.outHead
				}
				s.outHead = back
				c.h.K.At(back, func() { c.RecordReply(r) })
			}
		})
	})
	return nil
}

// latency draws a control-channel latency; the caller holds the harness
// lock (c.rng is guarded by it through the single-threaded Send paths).
func (c *Controller) latency() sim.Time {
	span := int64(c.opts.MaxLatency - c.opts.MinLatency)
	if span <= 0 {
		return c.opts.MinLatency
	}
	return c.opts.MinLatency + sim.Time(c.rng.Int63n(span+1))
}

// xid allocates a transaction ID.
func (c *Controller) xid() uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextXID++
	return c.nextXID
}

// SetSpan sets the ambient parent span under which subsequent control
// operations (Execute*, Barrier, individual sends) record their spans;
// zero clears it. Callers that own an update-level root span bracket
// execution with SetSpan(root)/SetSpan(0) so the whole control
// exchange hangs off that root.
func (c *Controller) SetSpan(id obs.SpanID) {
	c.mu.Lock()
	c.spanBase = id
	c.mu.Unlock()
}

func (c *Controller) pushSpan(id obs.SpanID) {
	c.mu.Lock()
	c.spanStack = append(c.spanStack, id)
	c.mu.Unlock()
}

func (c *Controller) popSpan() {
	c.mu.Lock()
	if n := len(c.spanStack); n > 0 {
		c.spanStack = c.spanStack[:n-1]
	}
	c.mu.Unlock()
}

func (c *Controller) curSpan() obs.SpanID {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := len(c.spanStack) - 1; i >= 0; i-- {
		if c.spanStack[i] != 0 {
			return c.spanStack[i]
		}
	}
	return c.spanBase
}

// ErrNoSession is returned when addressing an unattached switch.
var ErrNoSession = errors.New("controller: no session for switch")

// ErrTimeout is returned when replies do not arrive.
var ErrTimeout = errors.New("controller: timed out awaiting replies")

// replyTimeout bounds real-time waiting for replies; it matters only for
// TCP sessions and broken tests.
const replyTimeout = 5 * time.Second

func (c *Controller) session(id graph.NodeID) (Session, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.sessions[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoSession, id)
	}
	return s, nil
}

// send transmits m to id with a fresh xid and returns the xid.
func (c *Controller) send(id graph.NodeID, m ofp.Msg) (uint32, error) {
	s, err := c.session(id)
	if err != nil {
		return 0, err
	}
	x := c.xid()
	setXID(m, x)
	_, virtual := s.(*virtualSession)
	ts, _ := s.(*tcpSession)
	c.mu.Lock()
	c.viaKernel[x] = virtual
	if ts != nil && !ts.queued {
		ts.queued = true
		c.unflushed = append(c.unflushed, ts)
	}
	c.mu.Unlock()
	if err := s.Send(m); err != nil {
		return 0, err
	}
	switch v := m.(type) {
	case *ofp.FlowMod:
		c.met.flowMods.Inc()
		if c.opts.Trace != nil {
			next := "-"
			if v.Command != ofp.FlowDelete {
				if v.Action == ofp.ActionToHost {
					next = "host"
				} else {
					next = c.h.G.Name(graph.NodeID(v.NextHop))
				}
			}
			c.opts.Trace.Point(int64(c.h.Now()), obs.EvCtlFlowMod,
				obs.A(obs.KeySwitch, c.h.G.Name(id)), obs.A(obs.KeyAt, v.ExecuteAt),
				obs.A(obs.KeyKey, fmt.Sprintf("%s/%d", v.Flow, v.Tag)), obs.A(obs.KeyNext, next))
			// The send span's xid is what stitches the switch-side half
			// of this round-trip (sw.recv/sw.apply) into the tree.
			now := int64(c.h.Now())
			c.opts.Trace.EmitSpan(obs.OpCtlSend, c.curSpan(), now, now,
				obs.A(obs.KeySwitch, c.h.G.Name(id)), obs.A(obs.KeyXid, x),
				obs.A(obs.KeyKind, "flowmod"), obs.A(obs.KeyAt, v.ExecuteAt))
		}
	case *ofp.BarrierRequest:
		if c.opts.Trace != nil {
			now := int64(c.h.Now())
			c.opts.Trace.EmitSpan(obs.OpCtlSend, c.curSpan(), now, now,
				obs.A(obs.KeySwitch, c.h.G.Name(id)), obs.A(obs.KeyXid, x),
				obs.A(obs.KeyKind, "barrier"))
		}
	case *ofp.StatsRequest:
		c.met.statsPolls.Inc()
	}
	return x, nil
}

func setXID(m ofp.Msg, x uint32) {
	switch v := m.(type) {
	case *ofp.Hello:
		v.XID = x
	case *ofp.EchoRequest:
		v.XID = x
	case *ofp.FeaturesRequest:
		v.XID = x
	case *ofp.FlowMod:
		v.XID = x
	case *ofp.BarrierRequest:
		v.XID = x
	case *ofp.StatsRequest:
		v.XID = x
	default:
		panic(fmt.Sprintf("controller: cannot set xid on %T", m))
	}
}

// flush writes the messages queued on TCP sessions, one write per
// session, and returns the first write error. A session detached since
// it queued is still flushed, so its write error surfaces here.
func (c *Controller) flush() error {
	c.mu.Lock()
	pending := c.unflushed
	c.unflushed = nil
	for _, s := range pending {
		s.queued = false
	}
	c.mu.Unlock()
	var first error
	for _, s := range pending {
		if err := s.conn.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// flushOnError is deferred by every exported operation that sends: when
// the operation fails before its await, the messages it queued still go
// out, as they did when every Send wrote. A successful operation ends
// in an await, which flushed. A flush error here is dropped because the
// operation already fails with its own, the one its caller must see.
func (c *Controller) flushOnError(err *error) {
	if *err != nil {
		_ = c.flush()
	}
}

// await blocks until every xid has a reply, advancing virtual time as
// needed (virtual sessions) and waiting for the wire (TCP sessions). It
// flushes the queued requests first and returns the replies by xid.
func (c *Controller) await(xids []uint32) (map[uint32]ofp.Msg, error) {
	if err := c.flush(); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(replyTimeout)
	out := make(map[uint32]ofp.Msg, len(xids))
	for {
		kernelPending := false
		c.mu.Lock()
		for _, x := range xids {
			if m, ok := c.replies[x]; ok {
				out[x] = m
				delete(c.replies, x)
				delete(c.viaKernel, x)
			}
		}
		for _, x := range xids {
			if _, got := out[x]; !got && c.viaKernel[x] {
				kernelPending = true
			}
		}
		c.mu.Unlock()
		if len(out) == len(xids) {
			return out, nil
		}
		// Only step virtual time when a missing reply will arrive as a
		// kernel event; wire replies must not drag future data-plane and
		// timed-update events forward.
		if kernelPending {
			progressed := false
			c.h.Do(func() { progressed = c.h.K.Step() })
			if progressed {
				continue
			}
		}
		if time.Now().After(deadline) {
			return out, fmt.Errorf("%w: %d of %d replies", ErrTimeout, len(out), len(xids))
		}
		select {
		case <-c.notify:
		case <-time.After(200 * time.Microsecond):
		}
	}
}

// checkErrors fails if any reply is a protocol error.
func checkErrors(replies map[uint32]ofp.Msg) error {
	for _, m := range replies {
		if e, ok := m.(*ofp.ErrorMsg); ok {
			return fmt.Errorf("controller: switch error %d: %s", e.Code, e.Message)
		}
	}
	return nil
}

// Barrier sends BarrierRequests to the given switches and waits for all
// replies, advancing virtual time as needed.
func (c *Controller) Barrier(ids ...graph.NodeID) (err error) {
	defer c.flushOnError(&err)
	start := c.h.Now()
	c.met.barriers.Inc()
	sp := c.opts.Trace.StartSpan(int64(start), obs.OpCtlBarrier, c.curSpan(),
		obs.A(obs.KeySwitches, len(ids)))
	c.pushSpan(sp.SpanID())
	xids := make([]uint32, 0, len(ids))
	for _, id := range ids {
		x, err := c.send(id, &ofp.BarrierRequest{})
		if err != nil {
			c.popSpan()
			sp.End(int64(c.h.Now()), obs.A("outcome", "error"))
			return err
		}
		xids = append(xids, x)
	}
	c.popSpan()
	replies, err := c.await(xids)
	if err != nil {
		sp.End(int64(c.h.Now()), obs.A("outcome", "error"))
		return err
	}
	end := c.h.Now()
	c.met.barrierRTT.Observe(float64(end - start))
	sp.End(int64(end))
	if errs := c.takeAsyncErrors(); len(errs) > 0 {
		return fmt.Errorf("controller: switch error %d preceding barrier: %s", errs[0].Code, errs[0].Message)
	}
	return checkErrors(replies)
}
