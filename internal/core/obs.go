package core

import (
	"github.com/chronus-sdn/chronus/internal/obs"
)

// schedMetrics bundles the scheduler's instruments. Built from a
// possibly-nil registry, in which case every instrument is a nil no-op
// and instrumentation costs one predictable branch per event.
type schedMetrics struct {
	accepted      *obs.Counter
	deferred      *obs.Counter
	rejected      *obs.Counter
	validations   *obs.Counter
	wakeJumps     *obs.Counter
	backoffResets *obs.Counter
	cycles        *obs.Counter
	runs          *obs.Counter
	makespan      *obs.Histogram
}

// RegisterMetrics pre-registers the scheduler metric families on r so
// they appear in expositions before the first solve. Greedy calls it
// implicitly; daemons call it at boot.
func RegisterMetrics(r *obs.Registry) {
	newSchedMetrics(r)
	if r != nil {
		r.Help("chronus_solver_pool_bytes", "Scratch bytes parked in the pooled solver workspace freelist.")
		r.GaugeFunc("chronus_solver_pool_bytes", PooledBytes)
	}
}

func newSchedMetrics(r *obs.Registry) schedMetrics {
	if r != nil {
		r.Help("chronus_scheduler_candidates_total", "candidate evaluations by outcome (accepted, deferred, rejected)")
		r.Help("chronus_scheduler_wake_jumps_total", "event-driven jumps between wake ticks")
		r.Help("chronus_scheduler_validator_runs_total", "ground-truth validator invocations by the scheduler")
		r.Help("chronus_scheduler_backoff_resets_total", "exponential-backoff resets after an acceptance")
		r.Help("chronus_scheduler_dependency_cycles_total", "rounds whose dependency relation was cyclic")
		r.Help("chronus_scheduler_runs_total", "Greedy invocations")
		r.Help("chronus_scheduler_makespan_ticks", "schedule makespan in ticks")
	}
	return schedMetrics{
		accepted:      r.Counter(`chronus_scheduler_candidates_total{outcome="accepted"}`),
		deferred:      r.Counter(`chronus_scheduler_candidates_total{outcome="deferred"}`),
		rejected:      r.Counter(`chronus_scheduler_candidates_total{outcome="rejected"}`),
		validations:   r.Counter("chronus_scheduler_validator_runs_total"),
		wakeJumps:     r.Counter("chronus_scheduler_wake_jumps_total"),
		backoffResets: r.Counter("chronus_scheduler_backoff_resets_total"),
		cycles:        r.Counter("chronus_scheduler_dependency_cycles_total"),
		runs:          r.Counter("chronus_scheduler_runs_total"),
		makespan:      r.Histogram("chronus_scheduler_makespan_ticks", []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}),
	}
}
