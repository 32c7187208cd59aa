// Package clock estimates per-switch clock quality online from the
// trace stream: offset, drift rate and jitter of every switch's local
// clock relative to the controller's reference time.
//
// Timed SDNs stand on clock accuracy (Time4's premise), so the thing to
// measure is the clock itself, not just the damage after a late fire.
// The estimator consumes two signal sources that already exist in every
// execution: sw.apply fire-skew events (a timed FlowMod's actual minus
// requested tick, a direct offset sample of the switch clock at the
// requested tick) and the ctl.send/sw.barrier span pairs of barrier
// round trips (a one-way control latency sample, the lead time any
// corrective resync would need).
//
// The filter is deliberately simple and deterministic: per switch, a
// bounded window of recent samples yields a windowed-median offset, a
// least-squares drift slope and a max-deviation jitter, all in integer
// milliticks — no wall-clock reads, no floating point, so for a fixed
// seed the estimates are byte-reproducible in -virtual mode. The health
// engine extrapolates offset + drift to each switch's scheduled apply
// tick to raise WARN before the first late apply (see internal/health).
package clock

import (
	"fmt"
	"slices"
	"sync"

	"github.com/chronus-sdn/chronus/internal/obs"
)

// Window bounds the per-switch sample window: large enough for a stable
// median and slope, small enough that a resynced clock is forgotten
// within one probing round.
const Window = 32

// rttWindow bounds the per-switch barrier-latency window.
const rttWindow = 32

// sample is one fire-skew observation: the requested apply tick and the
// signed skew (actual - requested) in ticks.
type sample struct {
	at   int64
	skew int64
}

// switchState accumulates one switch's evidence.
type switchState struct {
	samples []sample // ring of the last Window fire-skew samples
	rtts    []int64  // ring of the last rttWindow one-way barrier latencies
	total   int64    // all-time fire-skew sample count

	// gauges mirror the offset, drift and jitter estimates, looked up on
	// the first Estimates with a registry.
	gauges [3]*obs.Gauge
}

func (st *switchState) push(s sample) {
	st.total++
	if len(st.samples) == Window {
		copy(st.samples, st.samples[1:])
		st.samples[Window-1] = s
		return
	}
	st.samples = append(st.samples, s)
}

func (st *switchState) pushRTT(lat int64) {
	if len(st.rtts) == rttWindow {
		copy(st.rtts, st.rtts[1:])
		st.rtts[rttWindow-1] = lat
		return
	}
	st.rtts = append(st.rtts, lat)
}

// SwitchClock is one switch's estimate. Sub-tick quantities are in
// milliticks (1/1000 tick) so the JSON stays integer and deterministic.
type SwitchClock struct {
	Switch string `json:"switch"`
	// OffsetMilliTicks is the windowed-median fire skew: the estimated
	// clock offset at the window's sample ticks (positive = late).
	OffsetMilliTicks int64 `json:"offset_mticks"`
	// DriftMilliTicksPerKtick is the least-squares slope of skew over
	// requested tick, in milliticks per kilotick (1 tick/ktick = 1000).
	DriftMilliTicksPerKtick int64 `json:"drift_mticks_per_ktick"`
	// JitterMilliTicks is the largest residual of a window sample from
	// the fitted offset+drift line — the noise left once the
	// deterministic part of the clock error is explained.
	JitterMilliTicks int64 `json:"jitter_mticks"`
	// RTTTicks is the median one-way barrier latency (ctl.send to
	// sw.barrier), the control-plane lead time toward this switch.
	RTTTicks int64 `json:"rtt_ticks"`
	// Samples is the all-time fire-skew sample count; WindowSamples how
	// many of them the current window holds.
	Samples       int64 `json:"samples"`
	WindowSamples int64 `json:"window_samples"`
	RTTSamples    int64 `json:"rtt_samples"`
	// FirstAt/LastAt bound the window's requested ticks.
	FirstAt int64 `json:"first_at"`
	LastAt  int64 `json:"last_at"`
}

// halfTrip is the half of a barrier round trip seen first: the ctl.send
// (sw set) or the sw.barrier reply (sw empty). Over TCP the switch agent
// can record its reply before the controller records the send, so either
// half may wait for the other.
type halfTrip struct {
	sw string
	vt int64
}

// maxPending bounds the xid-matching table; barriers that never get a
// reply (disconnects) must not leak entries forever.
const maxPending = 4096

// Estimator folds trace events into per-switch clock estimates. All
// methods are safe for concurrent use; a nil estimator is a no-op.
type Estimator struct {
	mu      sync.Mutex
	reg     *obs.Registry
	cursor  uint64
	states  map[string]*switchState
	names   []string            // the keys of states, ascending
	pending map[string]halfTrip // barrier xid -> the unmatched half
	sorted  []int64             // estimate's sort scratch
}

// RegisterMetrics pre-registers the clock gauge families on r so they
// appear in expositions before the first estimate.
func RegisterMetrics(r *obs.Registry) {
	r.Help("chronus_clock_offset_ticks", "Estimated per-switch clock offset: windowed-median timed-fire skew, in ticks (positive = firing late).")
	r.Help("chronus_clock_drift_ticks_per_ktick", "Estimated per-switch clock drift: least-squares slope of fire skew over scheduled tick, in ticks per 1000 ticks.")
	r.Help("chronus_clock_jitter_ticks", "Estimated per-switch clock jitter: largest window deviation from the median offset, in ticks.")
}

// New builds an estimator mirroring its estimates as gauges on reg (nil
// disables the metric mirror but not the estimator).
func New(reg *obs.Registry) *Estimator {
	if reg != nil {
		RegisterMetrics(reg)
	}
	return &Estimator{
		reg:     reg,
		states:  map[string]*switchState{},
		pending: map[string]halfTrip{},
	}
}

// Cursor returns the trace sequence number up to which events have been
// folded; feed Observe the events after it.
func (e *Estimator) Cursor() uint64 {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cursor
}

// Observe folds a batch of trace events (the page after
// estimator.Cursor()) into the windows. It consumes
// sw.apply point events (fire-skew samples) and the ctl.send/sw.barrier
// span pairs of barrier round trips (latency samples); everything else
// only moves the cursor.
func (e *Estimator) Observe(events []obs.Event) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range events {
		ev := &events[i]
		if ev.Seq > e.cursor {
			e.cursor = ev.Seq
		}
		switch ev.Name {
		case obs.EvSwApply:
			e.observeApply(ev)
		case obs.SpanEventName:
			e.observeSpan(ev)
		}
	}
}

// observeApply folds one fire-skew sample. The sw.apply point event
// carries the switch, the signed skew and the requested tick.
func (e *Estimator) observeApply(ev *obs.Event) {
	sw := ev.Attr(obs.KeySwitch)
	skew, haveSkew := ev.LookupInt(obs.KeySkew)
	at, haveAt := ev.LookupInt(obs.KeyAt)
	if sw == "" || !haveSkew || !haveAt {
		return
	}
	e.state(sw).push(sample{at: at, skew: skew})
}

// observeSpan pairs barrier ctl.send spans with the switch-side
// sw.barrier span carrying the same xid, in either order; the
// virtual-time difference is a one-way control latency sample.
func (e *Estimator) observeSpan(ev *obs.Event) {
	var half halfTrip
	switch ev.Attr(obs.KeyOp) {
	case obs.OpCtlSend:
		half = halfTrip{sw: ev.Attr(obs.KeySwitch), vt: ev.VT}
		if ev.Attr(obs.KeyKind) != "barrier" || half.sw == "" {
			return
		}
	case obs.EvSwBarrier:
		half = halfTrip{vt: ev.VT}
	default:
		return
	}
	xid := ev.Attr(obs.KeyXid)
	if xid == "" {
		return
	}
	other, ok := e.pending[xid]
	if !ok || (other.sw == "") == (half.sw == "") {
		// Nothing to pair with yet, or the same half again: hold this one.
		if len(e.pending) >= maxPending {
			// A half this old is never getting its pair; drop the table
			// rather than grow without bound on a disconnect-heavy stream.
			e.pending = map[string]halfTrip{}
		}
		e.pending[xid] = half
		return
	}
	delete(e.pending, xid)
	send, reply := other, half
	if half.sw != "" {
		send, reply = half, other
	}
	if lat := reply.vt - send.vt; lat >= 0 {
		e.state(send.sw).pushRTT(lat)
	}
}

func (e *Estimator) state(sw string) *switchState {
	st, ok := e.states[sw]
	if !ok {
		st = &switchState{}
		e.states[sw] = st
		i, _ := slices.BinarySearch(e.names, sw)
		e.names = slices.Insert(e.names, i, sw)
	}
	return st
}

// estimate computes one switch's SwitchClock from its window. Caller
// holds the lock. Pure integer arithmetic: the median of an even window
// is the rounded mean of the middle pair, the drift slope is the exact
// least-squares quotient over x-centered samples (centering keeps every
// intermediate far from overflow), jitter the max residual from the
// fitted line.
func (e *Estimator) estimate(sw string) SwitchClock {
	st := e.states[sw]
	out := SwitchClock{Switch: sw}
	if st == nil {
		return out
	}
	out.Samples = st.total
	out.WindowSamples = int64(len(st.samples))
	out.RTTSamples = int64(len(st.rtts))
	if len(st.rtts) > 0 {
		sorted := append(e.sorted[:0], st.rtts...)
		slices.Sort(sorted)
		out.RTTTicks = sorted[len(sorted)/2]
		e.sorted = sorted
	}
	n := int64(len(st.samples))
	if n == 0 {
		return out
	}
	out.FirstAt = st.samples[0].at
	out.LastAt = st.samples[n-1].at

	// Median offset in milliticks.
	skews := e.sorted[:0]
	for _, s := range st.samples {
		skews = append(skews, s.skew)
	}
	slices.Sort(skews)
	e.sorted = skews
	if n%2 == 1 {
		out.OffsetMilliTicks = skews[n/2] * 1000
	} else {
		out.OffsetMilliTicks = (skews[n/2-1] + skews[n/2]) * 500
	}

	// Drift: least-squares slope of skew over requested tick. Center x
	// on its integer mean so the sums stay small.
	mean := st.meanAt()
	if n >= 2 {
		var sx, sy, sxx, sxy int64
		for _, s := range st.samples {
			x := s.at - mean
			sx += x
			sy += s.skew
			sxx += x * x
			sxy += x * s.skew
		}
		den := n*sxx - sx*sx
		if den > 0 {
			// slope = num/den ticks per tick; scale to mticks/ktick
			// (x 1e6) before the division to keep integer precision.
			out.DriftMilliTicksPerKtick = (n*sxy - sx*sy) * 1_000_000 / den
		}
	}

	// Jitter: max residual from the fitted line (level = median at the
	// window's x-center), milliticks. With zero drift this degenerates
	// to the max deviation from the median.
	for _, s := range st.samples {
		dev := s.skew*1000 - (out.OffsetMilliTicks + out.DriftMilliTicksPerKtick*(s.at-mean)/1000)
		if dev < 0 {
			dev = -dev
		}
		if dev > out.JitterMilliTicks {
			out.JitterMilliTicks = dev
		}
	}
	return out
}

// meanAt returns the window's integer mean requested tick (the x-center
// of the fitted line). Caller holds the lock; window must be non-empty.
func (st *switchState) meanAt() int64 {
	var sum int64
	for _, s := range st.samples {
		sum += s.at
	}
	return sum / int64(len(st.samples))
}

// Estimate returns one switch's current estimate; ok is false when the
// estimator has no evidence for it at all.
func (e *Estimator) Estimate(sw string) (SwitchClock, bool) {
	if e == nil {
		return SwitchClock{}, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.states[sw]; !ok {
		return SwitchClock{}, false
	}
	return e.estimate(sw), true
}

// Estimates returns every switch's estimate, ascending by switch name,
// and mirrors the estimates onto the registry gauges (the same pattern
// health.Verdict uses: the read refreshes the exposition).
func (e *Estimator) Estimates() []SwitchClock {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]SwitchClock, 0, len(e.names))
	for _, name := range e.names {
		est := e.estimate(name)
		out = append(out, est)
		if e.reg != nil {
			st := e.states[name]
			if st.gauges[0] == nil {
				st.gauges = [3]*obs.Gauge{
					e.reg.Gauge(fmt.Sprintf("chronus_clock_offset_ticks{switch=%q}", name)),
					e.reg.Gauge(fmt.Sprintf("chronus_clock_drift_ticks_per_ktick{switch=%q}", name)),
					e.reg.Gauge(fmt.Sprintf("chronus_clock_jitter_ticks{switch=%q}", name)),
				}
			}
			st.gauges[0].Set(roundMilli(est.OffsetMilliTicks))
			st.gauges[1].Set(roundMilli(est.DriftMilliTicksPerKtick))
			st.gauges[2].Set(roundMilli(est.JitterMilliTicks))
		}
	}
	return out
}

// PredictSkew forecasts a conservative bound on |fire skew| in
// milliticks for switch sw at the given future tick: the fitted line
// (median offset + drift slope from the window's x-center) extrapolated
// to atTick, widened by the observed jitter. ok is false without any
// fire-skew samples. This is health.ClockSource's first half.
func (e *Estimator) PredictSkew(sw string, atTick int64) (int64, bool) {
	if e == nil {
		return 0, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.states[sw]
	if st == nil || len(st.samples) == 0 {
		return 0, false
	}
	est := e.estimate(sw)
	center := est.OffsetMilliTicks + est.DriftMilliTicksPerKtick*(atTick-st.meanAt())/1000
	if center < 0 {
		center = -center
	}
	return center + est.JitterMilliTicks, true
}

// TicksToViolation forecasts how many ticks past fromTick the predicted
// skew bound stays within slackTicks: 0 means the bound already exceeds
// the slack at fromTick, -1 means the forecast never crosses it (no
// drift). This is health.ClockSource's second half — the time-to-
// violation behind the predictive WARN.
func (e *Estimator) TicksToViolation(sw string, slackTicks, fromTick int64) int64 {
	if e == nil {
		return -1
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.states[sw]
	if st == nil || len(st.samples) == 0 {
		return -1
	}
	est := e.estimate(sw)
	limit := slackTicks*1000 - est.JitterMilliTicks
	mean := st.meanAt()
	off, d := est.OffsetMilliTicks, est.DriftMilliTicksPerKtick
	at := func(t int64) int64 {
		v := off + d*(t-mean)/1000
		if v < 0 {
			v = -v
		}
		return v
	}
	if at(fromTick) > limit {
		return 0
	}
	if d == 0 {
		return -1
	}
	// Normalize to a rising line: |off + d*x/1000| first exceeds limit
	// in the drift's own direction (the opposite crossing lies in the
	// past once the bound holds at fromTick).
	if d < 0 {
		d, off = -d, -off
	}
	// Smallest dt > 0 with off + d*(fromTick+dt-mean)/1000 > limit.
	dt := ((limit-off)*1000)/d + 1 - (fromTick - mean)
	if dt < 0 {
		dt = 0
	}
	return dt
}

// roundMilli rounds a millitick quantity to whole ticks, half away from
// zero — the same convention timesync.ApplyTick uses.
func roundMilli(m int64) int64 {
	if m >= 0 {
		return (m + 500) / 1000
	}
	return -((-m + 500) / 1000)
}
