package switchd

import (
	"github.com/chronus-sdn/chronus/internal/obs"
)

// agentMetrics bundles the agent-side instruments. All agents attached
// to one registry share the same counters (per-switch breakdown lives in
// the trace, not the registry, to keep cardinality bounded).
type agentMetrics struct {
	immediate *obs.Counter
	timed     *obs.Counter
}

// RegisterMetrics pre-registers the switch-agent metric families on r so
// they appear in expositions before the first control message.
func RegisterMetrics(r *obs.Registry) {
	newAgentMetrics(r)
}

func newAgentMetrics(r *obs.Registry) agentMetrics {
	if r != nil {
		r.Help("chronus_switchd_flowmods_total", "FlowMods accepted by agents, by execution kind")
	}
	return agentMetrics{
		immediate: r.Counter(`chronus_switchd_flowmods_total{kind="immediate"}`),
		timed:     r.Counter(`chronus_switchd_flowmods_total{kind="timed"}`),
	}
}

// SetObs attaches telemetry sinks to the agent: registry counters for
// FlowMods, and trace events for each control action (the timed ones
// carry their fire skew). Either argument may be nil.
// Call it before the agent handles traffic; the agent itself stays
// lock-free (counters are atomic, the tracer locks internally).
func (a *Agent) SetObs(r *obs.Registry, tr *obs.Tracer) {
	a.met = newAgentMetrics(r)
	a.trace = tr
}
