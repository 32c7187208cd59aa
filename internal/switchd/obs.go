package switchd

import (
	"github.com/chronus-sdn/chronus/internal/obs"
)

// agentMetrics bundles the agent-side instruments. All agents attached
// to one registry share the same counters (per-switch breakdown lives in
// the trace, not the registry, to keep cardinality bounded).
type agentMetrics struct {
	immediate  *obs.Counter
	timed      *obs.Counter
	barriers   *obs.Counter
	statsReqs  *obs.Counter
	fireSkew   *obs.Histogram
	skewEarly  *obs.Counter
	skewLate   *obs.Counter
	skewOnTime *obs.Counter
}

// RegisterMetrics pre-registers the switch-agent metric families on r so
// they appear in expositions before the first control message.
func RegisterMetrics(r *obs.Registry) {
	newAgentMetrics(r)
}

func newAgentMetrics(r *obs.Registry) agentMetrics {
	if r != nil {
		r.Help("chronus_switchd_flowmods_total", "FlowMods accepted by agents, by execution kind")
		r.Help("chronus_switchd_barriers_total", "barrier requests answered by agents")
		r.Help("chronus_switchd_stats_requests_total", "statistics requests answered by agents")
		r.Help("chronus_switchd_fire_skew_ticks", "absolute skew between a timed FlowMod's requested and actual apply tick")
		r.Help("chronus_switchd_fire_skew_sign_total", "timed fires by skew direction: early (local clock fast), late (slow or clamped), ontime")
	}
	return agentMetrics{
		immediate: r.Counter(`chronus_switchd_flowmods_total{kind="immediate"}`),
		timed:     r.Counter(`chronus_switchd_flowmods_total{kind="timed"}`),
		barriers:  r.Counter("chronus_switchd_barriers_total"),
		statsReqs: r.Counter("chronus_switchd_stats_requests_total"),
		// Adversary sweeps push skew to hundreds of ticks; keep the top
		// buckets wide enough that those fires don't all land in +Inf.
		fireSkew:   r.Histogram("chronus_switchd_fire_skew_ticks", []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}),
		skewEarly:  r.Counter(`chronus_switchd_fire_skew_sign_total{sign="early"}`),
		skewLate:   r.Counter(`chronus_switchd_fire_skew_sign_total{sign="late"}`),
		skewOnTime: r.Counter(`chronus_switchd_fire_skew_sign_total{sign="ontime"}`),
	}
}

// SetObs attaches telemetry sinks to the agent: registry counters for
// FlowMods, barriers, stats requests and scheduled-update fire skew, and
// trace events for each control action. Either argument may be nil.
// Call it before the agent handles traffic; the agent itself stays
// lock-free (counters are atomic, the tracer locks internally).
func (a *Agent) SetObs(r *obs.Registry, tr *obs.Tracer) {
	a.met = newAgentMetrics(r)
	a.trace = tr
}
