// The capacity ledger is the shared-state half of the admission
// pipeline: one reservation account per directed link, debited at plan
// time and credited at audited completion, so concurrent planners can
// never double-book bandwidth no matter how their waves interleave.
package admit

import (
	"fmt"
	"sort"
	"sync"

	"github.com/chronus-sdn/chronus/internal/graph"
	"github.com/chronus-sdn/chronus/internal/obs"
)

// linkKey identifies one directed link in the ledger.
type linkKey = [2]graph.NodeID

// Footprint maps the links an update touches (initial ∪ final path) to
// the demand it reserves on each. A link appearing on both paths is
// reserved once: the flow emits on one path per packet, so its
// transient load on a shared link never exceeds the demand.
type Footprint map[linkKey]graph.Capacity

// FootprintOf computes a request's link footprint on g.
func FootprintOf(g *graph.Graph, init, fin graph.Path, demand graph.Capacity) Footprint {
	fp := make(Footprint, len(init)+len(fin))
	for _, p := range []graph.Path{init, fin} {
		for k := 1; k < len(p); k++ {
			fp[linkKey{p[k-1], p[k]}] = demand
		}
	}
	return fp
}

// Ledger is the shared per-link capacity account. Reserve is
// all-or-nothing: either every link of a footprint has room and the
// whole footprint is debited atomically, or nothing is and the caller
// gets a refusal naming the saturated link. Release credits a
// reservation back exactly; double releases are no-ops. The overcommit
// counter is a runtime self-check — it increments if a debit ever
// leaves a link above its capacity, which the Reserve precondition
// makes impossible, so a non-zero count is a ledger bug, not load.
type Ledger struct {
	mu       sync.Mutex
	g        *graph.Graph // the graph the ledger accounts for; read-only
	reserved map[linkKey]graph.Capacity
	holds    map[uint64]Footprint

	overcommits *obs.Counter
	reservedG   *obs.Gauge
	utilG       *obs.Gauge
}

// NewLedger builds a ledger over g's links, exporting its gauges and
// the overcommit counter on reg (nil disables the metric mirror).
func NewLedger(g *graph.Graph, reg *obs.Registry) *Ledger {
	l := &Ledger{
		g:        g,
		reserved: make(map[linkKey]graph.Capacity, g.NumLinks()),
		holds:    make(map[uint64]Footprint),
	}
	if reg != nil {
		l.overcommits = reg.Counter("chronus_admit_ledger_overcommit_total")
		l.reservedG = reg.Gauge("chronus_admit_ledger_reserved_units")
		l.utilG = reg.Gauge("chronus_admit_ledger_utilization_pct")
	}
	return l
}

// Reserve debits fp under hold id. It fails without side effects when
// any link lacks room (naming the first saturated link in a fixed
// order) or is unknown to the ledger.
func (l *Ledger) Reserve(id uint64, fp Footprint) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, dup := l.holds[id]; dup {
		return fmt.Errorf("admit: hold %d already reserved", id)
	}
	keys := sortedKeys(fp)
	for _, k := range keys {
		lk, ok := l.g.Link(k[0], k[1])
		if !ok {
			return fmt.Errorf("admit: link %s->%s not in the ledger", l.g.Name(k[0]), l.g.Name(k[1]))
		}
		if l.reserved[k]+fp[k] > lk.Cap {
			return fmt.Errorf("admit: link %s->%s saturated by in-flight updates (%d + %d > cap %d)",
				l.g.Name(k[0]), l.g.Name(k[1]), l.reserved[k], fp[k], lk.Cap)
		}
	}
	for _, k := range keys {
		l.reserved[k] += fp[k]
		if l.reserved[k] > l.cap(k) && l.overcommits != nil {
			l.overcommits.Inc()
		}
	}
	l.holds[id] = fp
	l.mirror()
	return nil
}

// Release credits hold id back. Unknown ids are ignored (completion
// and failure paths may both release).
func (l *Ledger) Release(id uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	fp, ok := l.holds[id]
	if !ok {
		return
	}
	delete(l.holds, id)
	for k, d := range fp {
		l.reserved[k] -= d
		if l.reserved[k] <= 0 {
			delete(l.reserved, k)
		}
	}
	l.mirror()
}

// Residual clones the ledger's graph with every link's capacity reduced
// by the current reservations, except those held by the ids in exclude —
// the graph a planner must solve against so it cannot double-book what
// concurrent in-flight updates already hold. A link fully consumed by
// in-flight holds is dropped, as in the batch layer's residual.
func (l *Ledger) Residual(exclude ...uint64) *graph.Graph {
	l.mu.Lock()
	defer l.mu.Unlock()
	own := make(map[linkKey]graph.Capacity)
	for _, id := range exclude {
		for k, d := range l.holds[id] {
			own[k] += d
		}
	}
	res := l.g.Clone()
	for k, d := range l.reserved {
		rest := d - own[k]
		if rest <= 0 {
			continue
		}
		if _, ok := res.Occupy(k[0], k[1], rest); !ok {
			// Reserve admits only links of l.g; a missing one means the
			// graph was edited under the ledger, which is a programming error.
			panic(fmt.Sprintf("admit: reservation on a link the graph lost: %d->%d", k[0], k[1]))
		}
	}
	return res
}

// Utilization reports the ledger's load: total reserved units, the
// number of links holding reservations, active holds, and the maximum
// per-link utilization percentage.
type Utilization struct {
	ReservedUnits int64 `json:"reserved_units"`
	ReservedLinks int   `json:"reserved_links"`
	Holds         int   `json:"holds"`
	MaxLinkPct    int64 `json:"max_link_pct"`
}

// Utilization snapshots the ledger load and refreshes its gauges.
func (l *Ledger) Utilization() Utilization {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.mirror()
}

// mirror recomputes the summary and pushes it to the gauges. Callers
// hold l.mu.
func (l *Ledger) mirror() Utilization {
	var u Utilization
	u.Holds = len(l.holds)
	for k, d := range l.reserved {
		if d <= 0 {
			continue
		}
		u.ReservedUnits += int64(d)
		u.ReservedLinks++
		if cap := l.cap(k); cap > 0 {
			if pct := 100 * int64(d) / int64(cap); pct > u.MaxLinkPct {
				u.MaxLinkPct = pct
			}
		}
	}
	if l.reservedG != nil {
		l.reservedG.Set(u.ReservedUnits)
		l.utilG.Set(u.MaxLinkPct)
	}
	return u
}

// cap is the capacity of link k in the ledger's graph, 0 if it has none.
func (l *Ledger) cap(k linkKey) graph.Capacity {
	lk, _ := l.g.Link(k[0], k[1])
	return lk.Cap
}

func sortedKeys(fp Footprint) []linkKey {
	keys := make([]linkKey, 0, len(fp))
	for k := range fp {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	return keys
}
