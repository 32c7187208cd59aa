// Package timesync models the synchronized clocks that timed SDNs rely on
// (Time4 / ReversePTP in the paper): every switch owns a local clock with
// bounded offset and drift relative to the controller's reference time,
// re-synchronized periodically.
//
// The paper's premise is that rule updates can be scheduled "on the order
// of one microsecond". This package makes that premise a measurable
// parameter: schedules are computed in reference time, switches execute at
// the moment their local clock reaches the scheduled instant, and the
// residual synchronization error decides whether the executed schedule
// still matches the one the scheduler proved safe. The clock-skew ablation
// in the benchmark suite sweeps SyncErrorNs to find where violations begin.
//
// Clocks are modeled in nanoseconds; one emulator tick is one millisecond
// (TickNs). Offsets are deterministic functions of (seed, node, epoch), so
// experiments reproduce exactly.
package timesync

import (
	"math/rand"

	"github.com/chronus-sdn/chronus/internal/graph"
	"github.com/chronus-sdn/chronus/internal/sim"
)

// TickNs is the duration of one emulator tick in clock nanoseconds.
const TickNs = int64(1_000_000)

// Params configures an Ensemble.
type Params struct {
	// Seed makes the ensemble reproducible.
	Seed int64
	// SyncIntervalNs is the re-synchronization period (default 1 s).
	SyncIntervalNs int64
	// SyncErrorNs bounds the absolute offset right after a sync (the
	// protocol's accuracy; Time4 reports ~1 µs). Offsets are drawn
	// uniformly from [-SyncErrorNs, +SyncErrorNs].
	SyncErrorNs int64
	// DriftPPB is the maximum clock drift in parts per billion; each
	// switch gets a fixed drift drawn uniformly from [-DriftPPB, +DriftPPB].
	DriftPPB int64
}

// DefaultParams models a PTP-grade deployment: 1 µs sync accuracy, 10 ppm
// drift, 1 s sync interval.
func DefaultParams(seed int64) Params {
	return Params{
		Seed:           seed,
		SyncIntervalNs: 1_000_000_000,
		SyncErrorNs:    1_000,
		DriftPPB:       10_000,
	}
}

// Ensemble is a set of per-switch clocks.
type Ensemble struct {
	p      Params
	drifts map[graph.NodeID]int64 // ppb, fixed per node
}

// New builds the ensemble for the given switches.
func New(p Params, nodes []graph.NodeID) *Ensemble {
	if p.SyncIntervalNs <= 0 {
		p.SyncIntervalNs = 1_000_000_000
	}
	e := &Ensemble{p: p, drifts: make(map[graph.NodeID]int64, len(nodes))}
	rng := rand.New(rand.NewSource(p.Seed))
	for _, v := range nodes {
		if p.DriftPPB > 0 {
			e.drifts[v] = rng.Int63n(2*p.DriftPPB+1) - p.DriftPPB
		}
	}
	return e
}

// Drift returns v's fixed clock drift in parts per billion (positive =
// the local clock runs fast). It is the ground truth the clock-quality
// estimator (internal/clock) is held to in tests.
func (e *Ensemble) Drift(v graph.NodeID) int64 { return e.drifts[v] }

// SetDrift pins v's drift to an exact ppb value, overriding the seeded
// draw. Estimator convergence tests use it to inject a known slope.
func (e *Ensemble) SetDrift(v graph.NodeID, ppb int64) { e.drifts[v] = ppb }

// epochBase returns the offset right after the sync at the start of the
// given epoch, deterministically derived from (seed, node, epoch).
func (e *Ensemble) epochBase(v graph.NodeID, epoch int64) int64 {
	if e.p.SyncErrorNs <= 0 {
		return 0
	}
	h := uint64(e.p.Seed)*0x9E3779B97F4A7C15 ^ uint64(v+1)*0xBF58476D1CE4E5B9 ^ uint64(epoch+1)*0x94D049BB133111EB
	h ^= h >> 31
	h *= 0xD6E8FEB86659FD93
	h ^= h >> 27
	span := 2*e.p.SyncErrorNs + 1
	return int64(h%uint64(span)) - e.p.SyncErrorNs
}

// OffsetNs returns v's clock offset at the given reference time:
// local = reference + offset.
func (e *Ensemble) OffsetNs(v graph.NodeID, refNs int64) int64 {
	epoch := refNs / e.p.SyncIntervalNs
	if refNs < 0 {
		epoch-- // floor division
	}
	sinceSync := refNs - epoch*e.p.SyncIntervalNs
	return e.epochBase(v, epoch) + e.drifts[v]*sinceSync/1_000_000_000
}

// GlobalForLocal returns the reference time at which v's clock reads
// localNs. Offsets change slowly (drift is ppb-scale), so two rounds of
// fixed-point iteration suffice to sub-nanosecond accuracy.
func (e *Ensemble) GlobalForLocal(v graph.NodeID, localNs int64) int64 {
	ref := localNs - e.OffsetNs(v, localNs)
	ref = localNs - e.OffsetNs(v, ref)
	return ref
}

// ApplyTick maps a scheduled emulator tick (reference time) to the tick at
// which switch v actually applies it: the reference instant when v's local
// clock reaches the scheduled instant, rounded to tick granularity toward
// the actual instant.
func (e *Ensemble) ApplyTick(v graph.NodeID, scheduled sim.Time) sim.Time {
	localTarget := int64(scheduled) * TickNs
	refNs := e.GlobalForLocal(v, localTarget)
	// Round half away from zero so sub-half-tick errors vanish at tick
	// granularity, matching a switch that fires within the tick.
	if refNs >= 0 {
		return sim.Time((refNs + TickNs/2) / TickNs)
	}
	return sim.Time((refNs - TickNs/2) / TickNs)
}
