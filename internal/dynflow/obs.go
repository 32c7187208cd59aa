package dynflow

import (
	"github.com/chronus-sdn/chronus/internal/obs"
)

// validatorMetrics bundles the validator's instruments; built from a
// possibly-nil registry (nil instruments are no-ops).
type validatorMetrics struct {
	runs       *obs.Counter
	traces     *obs.Counter
	denseLoads *obs.Counter
	mapLoads   *obs.Counter
	window     *obs.Histogram
}

const (
	slackSteps    = "chronus_slack_steps_total"
	slackRetraced = "chronus_slack_retraced_emissions_total"
)

// RegisterMetrics pre-registers the validator metric families on r so
// they appear in expositions before the first validation.
func RegisterMetrics(r *obs.Registry) {
	newValidatorMetrics(r)
	if r != nil {
		// DelaySlack's work counters; validator runs keep counting full
		// validations only.
		r.Help(slackSteps, "delay ticks examined by slack certification")
		r.Help(slackRetraced, "emissions diverted and re-traced by slack certification")
		r.Counter(slackSteps)
		r.Counter(slackRetraced)
	}
}

func newValidatorMetrics(r *obs.Registry) validatorMetrics {
	if r != nil {
		r.Help("chronus_validator_runs_total", "ground-truth validations")
		r.Help("chronus_validator_traces_total", "emission traces walked")
		r.Help("chronus_validator_load_accounting_total", "load-accounting runs by backend (dense array vs map fallback)")
		r.Help("chronus_validator_window_ticks", "validation window size in ticks")
	}
	return validatorMetrics{
		runs:       r.Counter("chronus_validator_runs_total"),
		traces:     r.Counter("chronus_validator_traces_total"),
		denseLoads: r.Counter(`chronus_validator_load_accounting_total{backend="dense"}`),
		mapLoads:   r.Counter(`chronus_validator_load_accounting_total{backend="map"}`),
		window:     r.Histogram("chronus_validator_window_ticks", []float64{8, 16, 32, 64, 128, 256, 512, 1024, 4096}),
	}
}
