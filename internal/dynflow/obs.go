package dynflow

import (
	"github.com/chronus-sdn/chronus/internal/obs"
)

// validatorMetrics bundles the validator's instruments; built from a
// possibly-nil registry (nil instruments are no-ops).
type validatorMetrics struct {
	runs   *obs.Counter
	traces *obs.Counter
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
		// Kernel.Slack's work counters; validator runs keep counting full
		// validations only.
		r.Help(slackSteps, "delay ticks walked by slack certification (a walk ends at the first violation or once the rest of the horizon is proven clean)")
		r.Help(slackRetraced, "emissions diverted and re-traced by slack certification")
		r.Counter(slackSteps)
		r.Counter(slackRetraced)
	}
}

func newValidatorMetrics(r *obs.Registry) validatorMetrics {
	if r != nil {
		r.Help("chronus_validator_runs_total", "ground-truth validations")
		r.Help("chronus_validator_traces_total", "emission traces walked")
	}
	return validatorMetrics{
		runs:   r.Counter("chronus_validator_runs_total"),
		traces: r.Counter("chronus_validator_traces_total"),
	}
}
