package baseline

import (
	"github.com/chronus-sdn/chronus/internal/dynflow"
)

// RuleAccounting quantifies flow-table usage for one update instance under
// Chronus and under two-phase commit. The model follows the paper's
// prototype (Table II): each switch holds one forwarding entry per flow and
// the ingress holds one entry per attached host prefix; two-phase stamps
// version tags per host prefix at the ingress.
type RuleAccounting struct {
	// Steady is the rule count outside updates: one entry per switch on
	// the active path.
	Steady int
	// ChronusPeak is the resident rule count at the peak of a Chronus
	// update: the steady rules plus fresh installs on final-only switches
	// (existing entries are modified in place — "we only modify the action
	// in the flow table").
	ChronusPeak int
	// ChronusTouched is the number of FlowMod operations Chronus issues
	// (every switch in the update set).
	ChronusTouched int
	// TPPeak is the resident rule count at the peak of a two-phase update:
	// both versions resident simultaneously, plus the per-host stamping
	// entries at the ingress and the untag entry at the egress.
	TPPeak int
	// TPTouched is the number of FlowMod operations two-phase issues
	// (install new version everywhere, restamp hosts, delete old version).
	TPTouched int
}

// CountRules computes the accounting for an instance; ingressHosts is the
// number of host prefixes attached at the source switch (the paper's
// Table II shows per-host entries with a Tag match column).
func CountRules(in *dynflow.Instance, ingressHosts int) RuleAccounting {
	initRules := len(in.Init) - 1
	finRules := len(in.Fin) - 1
	finOnly := 0
	for _, v := range in.Fin[:len(in.Fin)-1] {
		if !in.Init.Contains(v) {
			finOnly++
		}
	}
	acc := RuleAccounting{
		Steady:         initRules,
		ChronusPeak:    initRules + finOnly,
		ChronusTouched: len(in.UpdateSet()),
		TPPeak:         initRules + finRules + ingressHosts + 1,
		TPTouched:      finRules + ingressHosts + initRules, // install + restamp + cleanup
	}
	return acc
}

// TPSavingsPercent returns how many rules Chronus saves over two-phase at
// the transition peak, in percent.
func (a RuleAccounting) TPSavingsPercent() float64 {
	if a.TPPeak == 0 {
		return 0
	}
	return 100 * (1 - float64(a.ChronusPeak)/float64(a.TPPeak))
}
