package core

import (
	"github.com/chronus-sdn/chronus/internal/obs"
)

// schedMetrics bundles the scheduler's instruments. Built from a
// possibly-nil registry, in which case every instrument is a nil no-op
// and instrumentation costs one predictable branch per event.
type schedMetrics struct {
	accepted    *obs.Counter
	deferred    *obs.Counter
	rejected    *obs.Counter
	validations *obs.Counter
	runs        *obs.Counter
}

// RegisterMetrics pre-registers the scheduler metric families on r so
// they appear in expositions before the first solve. Greedy calls it
// implicitly; daemons call it at boot.
func RegisterMetrics(r *obs.Registry) {
	newSchedMetrics(r)
}

func newSchedMetrics(r *obs.Registry) schedMetrics {
	if r != nil {
		r.Help("chronus_scheduler_candidates_total", "candidate evaluations by outcome (accepted, deferred, rejected)")
		r.Help("chronus_scheduler_validator_runs_total", "ground-truth validator invocations by the scheduler")
		r.Help("chronus_scheduler_runs_total", "Greedy invocations")
	}
	return schedMetrics{
		accepted:    r.Counter(`chronus_scheduler_candidates_total{outcome="accepted"}`),
		deferred:    r.Counter(`chronus_scheduler_candidates_total{outcome="deferred"}`),
		rejected:    r.Counter(`chronus_scheduler_candidates_total{outcome="rejected"}`),
		validations: r.Counter("chronus_scheduler_validator_runs_total"),
		runs:        r.Counter("chronus_scheduler_runs_total"),
	}
}
