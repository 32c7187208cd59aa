package dynflow

// RunStats are a kernel's counters in runs and units (see runStats).
type RunStats = runStats

// KernelRunStats returns k's counters so far.
func KernelRunStats(k *Kernel) RunStats { return k.stats }

// CollectRunStats adds the counters of every kernel released from now on
// to *sum, until the returned function is called.
func CollectRunStats(sum *RunStats) (stop func()) {
	statsSink = func(s runStats) {
		sum.Commits += s.Commits
		sum.StoredRuns += s.StoredRuns
		sum.StoredUnits += s.StoredUnits
		sum.Trials += s.Trials
		sum.DivertedRuns += s.DivertedRuns
		sum.DivertedUnits += s.DivertedUnits
		sum.SplitsAt += s.SplitsAt
		sum.SplitsDown += s.SplitsDown
		sum.Merges += s.Merges
		sum.TailResizes += s.TailResizes
	}
	return func() { statsSink = nil }
}
