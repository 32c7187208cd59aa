package emu

import (
	"github.com/chronus-sdn/chronus/internal/obs"
	"github.com/chronus-sdn/chronus/internal/sim"
)

// emuMetrics bundles the data-plane instruments shared by every switch
// and link of one network.
type emuMetrics struct {
	overloads *obs.Counter
}

// RegisterMetrics pre-registers the emulator metric families on r so they
// appear in expositions before the first event.
func RegisterMetrics(r *obs.Registry) {
	newEmuMetrics(r)
}

func newEmuMetrics(r *obs.Registry) emuMetrics {
	if r != nil {
		r.Help("chronus_emu_overloads_total", "link overload intervals recorded (congestion events)")
	}
	return emuMetrics{
		overloads: r.Counter("chronus_emu_overloads_total"),
	}
}

// SetObs attaches telemetry sinks to the network: the congestion counter
// on r, and per-event trace records on tr. Either
// argument may be nil. Like all emulator mutations it must be called
// from outside (or before) any running simulation events.
func (n *Network) SetObs(r *obs.Registry, tr *obs.Tracer) {
	n.met = newEmuMetrics(r)
	n.trace = tr
}

// overloadClosed records a completed link overload interval. It fires at
// interval close rather than open so zero-length blips — which the
// emulator discards from its overload counters — never reach the
// telemetry, and the counter agrees with CongestedLinks().
func (n *Network) overloadClosed(l *Link, start, end sim.Time, peak Rate) {
	n.met.overloads.Inc()
	if n.trace != nil {
		n.trace.Span(obs.EvEmuOverload, int64(start), int64(end),
			obs.A(obs.KeyLink, l.label),
			obs.A(obs.KeyPeak, int64(peak)), obs.A(obs.KeyCap, int64(l.Capacity())))
	}
}

// dropStarted records a key transitioning into blackholing at a switch.
func (n *Network) dropStarted(sw *Switch, now sim.Time, key string, reason MissReason) {
	if n.trace != nil {
		n.trace.Point(int64(now), obs.EvEmuDrop,
			obs.A(obs.KeySwitch, sw.Name()), obs.A(obs.KeyKey, key),
			obs.A(obs.KeyReason, missReasonString(reason)))
	}
}

func missReasonString(r MissReason) string {
	if r == MissTTLExpired {
		return "ttl_expired"
	}
	return "no_rule"
}
