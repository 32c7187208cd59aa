package chronus

import (
	"github.com/chronus-sdn/chronus/internal/batch"
	"github.com/chronus-sdn/chronus/internal/dynflow"
)

// Multi-flow batch scheduling: sequential composition of single-flow
// Chronus updates over a shared topology, validated jointly. This extends
// the paper's single-flow model toward the multi-flow workloads of systems
// like SWAN and zUpdate.
type (
	// BatchFlow is one flow's update request within a batch.
	BatchFlow = batch.Flow
	// BatchPlan is a scheduled batch with its joint validation report.
	BatchPlan = batch.Plan
	// FlowUpdate pairs an instance with its schedule (joint validation
	// input and batch plan entry).
	FlowUpdate = dynflow.FlowUpdate
	// JointReport is the joint validator's verdict over several flows.
	JointReport = dynflow.JointReport
)

// BatchOptions configures SolveBatch.
type BatchOptions struct {
	// Start is the first tick of the batch.
	Start Tick
	// Scheme names the per-flow scheduler in the registry (see Schemes());
	// it must produce timed schedules. Empty means "chronus".
	Scheme string
	// Gap inserts idle ticks between consecutive flows' migrations.
	Gap Tick
}

// SolveBatch schedules updates for several flows on one topology: flows
// migrate one at a time against residual capacities (already-migrated flows
// occupy their final paths, waiting flows their initial paths), spaced so
// each migration's transients drain before the next begins. The returned
// plan is violation-free under the joint validator; an error is returned
// when a steady state is oversubscribed, a flow has no safe schedule on its
// residual topology, or a mixed configuration saturates a needed link (in
// which case reordering the flows may help).
func SolveBatch(g *Network, flows []BatchFlow, o BatchOptions) (*BatchPlan, error) {
	return batch.Solve(g, flows, batch.Options{Start: o.Start, Scheme: o.Scheme, Gap: o.Gap})
}

// ValidateJoint checks several flows' updates together: per-flow loop- and
// blackhole-freedom plus congestion-freedom of the summed loads.
func ValidateJoint(updates []FlowUpdate) (*JointReport, error) {
	return dynflow.ValidateJoint(updates)
}
