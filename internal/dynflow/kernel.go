package dynflow

import (
	"cmp"
	"slices"
	"sort"
	"sync"

	"github.com/chronus-sdn/chronus/internal/graph"
)

// Kernel is the incremental validator under Alg. 2 and slack
// certification. It holds the traces and loads of one schedule's
// validation window and changes one switch's activation at a time:
// Move(v, t) re-traces from v only the stored units that reach v between
// its old and new activation, and loads the pure-final tail up to the new
// latest arrival; Check reports a loop or blackhole on a diverted unit,
// congestion on the load entries the move raised (no other entry holds
// more than under the clean base) and the exact LatestArrival — the
// verdict Validate gives the moved schedule; Undo restores the base
// schedule, Commit makes the moved one the base.
//
// Moves chain, but only for one switch between an Undo or Commit and the
// next, and only later: t may not precede v's current activation unless v
// is unscheduled. A move needs a clean base. A Kernel is not safe for
// concurrent use; Release returns its scratch to the pool.
type Kernel struct {
	in    *Instance
	tr    *tracer
	x     *scratch
	rows  int  // footprint links: the load entries per tick
	start Tick // the window's first emission: Start − φ(p_init)
	ok    bool // the base validates clean
	w     window

	moving bool // a move of mv is pending; Undo puts the saved state back
	mv     graph.NodeID
	// A pure-final unit reaches mv mvAfter ticks after its emission, as hop
	// mvHop (−1: never), and after mv's activation, so it cannot stop there.
	mvHop                int32
	mvAfter              Tick
	saved                window
	savedAct             Tick
	savedEms, savedArena int

	retraced int64 // units diverted, for the slack counters
}

// window is what a move changes: the schedule's end, the LatestArrival
// (the latest arrival of an emission up to end), the last emission the
// loads cover (past start), and the stored traces that loop or blackhole.
type window struct {
	end, latest Tick
	loaded, bad int
}

// emission is the stored trace of one unit: its hops, arena[lo:lo+n],
// each shift ticks later than recorded (copies of one pure-final trace
// share its hops), its terminal status and the tick it terminated.
// Offsets rather than slices keep the scratch free of pointers, so
// storing and undoing traces costs no write barriers.
type emission struct {
	lo, n  int32
	shift  Tick
	arrive Tick
	status TraceStatus
}

// reach is emission i arriving at a switch at tick, where hop j of its trace
// departs (or would, had it not stopped there).
type reach struct {
	tick Tick
	i, j int32
}

func byTick(a, b reach) int { return cmp.Compare(a.tick, b.tick) }

// loadEdit is the loads of arena[lo:lo+n], shift ticks later, added
// (sign +1) or removed (−1). A pending move only appends to the arena, so
// the hops stay put until it is undone or committed.
type loadEdit struct {
	lo, n int32
	shift Tick
	sign  graph.Capacity
}

type emissionUndo struct {
	i  int
	em emission
}

// scratch is the working memory of Validate and Kernel, recycled through
// a bounded freelist, so a solve on a fresh Instance allocates none of it.
type scratch struct {
	lw    loadWindow
	times []Tick
	// ems[i] is the trace of emission start+i. Every emission of the window
	// is stored, and at least those up to end; each later one is the last
	// stored trace shifted in time (they all follow the pure final route).
	ems   []emission
	arena []traceHop
	// load[(tick−start)×rows + ordinal] is the demand departing on a
	// footprint link at a tick; load[loadHi:] is all zero.
	load   []graph.Capacity
	loadHi int
	// index[indexOff[k]:indexOff[k+1]] are the reaches of slot k's switch;
	// extra are the moving switch's reaches in emissions stored during the
	// move. A move sorts the ones it reads by tick.
	index    []reach
	indexOff []int32
	extra    []reach
	// The pending move's undo log, and the load additions not yet checked
	// against capacity.
	journal []loadEdit
	undo    []emissionUndo
	raised  []loadEdit
}

var scratchPool struct {
	sync.Mutex
	free []*scratch
}

// The freelist keeps up to scratchPoolCap scratches, none whose load
// array or trace arena outgrew scratchKeep entries (an outsized window).
const scratchPoolCap, scratchKeep = 8, 1 << 16

func getScratch() *scratch {
	scratchPool.Lock()
	defer scratchPool.Unlock()
	if n := len(scratchPool.free); n > 0 {
		x := scratchPool.free[n-1]
		scratchPool.free = scratchPool.free[:n-1]
		return x
	}
	return &scratch{}
}

func putScratch(x *scratch) {
	if max(cap(x.lw.val), cap(x.load), cap(x.arena)) > scratchKeep {
		return
	}
	scratchPool.Lock()
	defer scratchPool.Unlock()
	if len(scratchPool.free) < scratchPoolCap {
		scratchPool.free = append(scratchPool.free, x)
	}
}

// NewKernel traces s's validation window once and stores it.
func NewKernel(in *Instance, s *Schedule) *Kernel {
	tr := tracerFor(in)
	k := &Kernel{in: in, tr: tr, x: getScratch(), rows: len(tr.links), start: s.Start - Tick(in.Init.Delay(in.G))}
	x := k.x
	tr.view(&x.times, s)
	k.w = window{end: s.End(), latest: s.End(), loaded: -1}
	for e := k.start; e <= k.w.end; e++ {
		lo := len(x.arena)
		status, _, a := tr.trace(x.times, e, nil, &x.arena)
		x.ems = append(x.ems, emission{lo: int32(lo), n: int32(len(x.arena) - lo), arrive: a, status: status})
		k.w.latest = max(k.w.latest, a)
		if status != Delivered {
			k.w.bad++
		}
	}
	k.settle()
	k.ok = k.clean()
	k.reindex()
	return k
}

// Release returns the kernel's scratch to the pool; k is unusable after.
func (k *Kernel) Release() {
	x := k.x
	clear(x.load[:x.loadHi])
	x.ems, x.arena, x.loadHi = x.ems[:0], x.arena[:0], 0
	k.endMove()
	k.x = nil
	putScratch(x)
}

func (x *scratch) hops(em emission) []traceHop { return x.arena[em.lo : em.lo+em.n] }

// extend stores emissions up to e as copies of the last stored trace,
// shifted: past the schedule's end every unit takes the same route. The
// moving switch's reaches in them join extra.
func (k *Kernel) extend(e Tick) {
	x := k.x
	last := len(x.ems) - 1
	tmpl := x.ems[last]
	for i := last + 1; i <= int(e-k.start); i++ {
		d := Tick(i - last)
		em := tmpl
		em.shift += d
		em.arrive += d
		x.ems = append(x.ems, em)
		if em.status != Delivered {
			k.w.bad++
		}
		if k.moving && k.mvHop >= 0 {
			x.extra = append(x.extra, reach{tick: k.start + Tick(i) + k.mvAfter, i: int32(i), j: k.mvHop})
		}
	}
}

// edit adds (sign +1) or removes (−1) the loads of em's hops from the j-th.
func (k *Kernel) edit(em emission, j int, sign graph.Capacity) {
	if j >= int(em.n) {
		return
	}
	x := k.x
	e := loadEdit{lo: em.lo + int32(j), n: em.n - int32(j), shift: em.shift, sign: sign}
	// A trace departs later at every hop: the last hop has the largest key.
	if hi := (int(x.arena[e.lo+e.n-1].tick+e.shift-k.start) + 1) * k.rows; hi > x.loadHi {
		if hi > len(x.load) {
			grown := make([]graph.Capacity, max(hi, 2*len(x.load)))
			copy(grown, x.load[:x.loadHi])
			x.load = grown
		}
		x.loadHi = hi
	}
	k.apply(e, sign*k.in.Demand)
	if k.moving {
		x.journal = append(x.journal, e)
	}
	if sign > 0 {
		x.raised = append(x.raised, e)
	}
}

// apply adds delta to the loads of e's hops.
func (k *Kernel) apply(e loadEdit, delta graph.Capacity) {
	load, base, rows := k.x.load, k.start-e.shift, k.rows
	for _, h := range k.x.arena[e.lo : e.lo+e.n] {
		load[int(h.tick-base)*rows+int(h.ord)] += delta
	}
}

// settle loads the emissions up to latest, storing more of the pure-final
// tail first if the window outgrew it. Loads of emissions past a window
// that shrank stay: such a unit leaves the source after every mixed unit
// has arrived, and pure-final units never share a link instance, so it
// shares none with any unit (the argument that bounds Validate's window).
func (k *Kernel) settle() {
	x := k.x
	top := int(k.w.latest - k.start)
	if top >= len(x.ems) {
		k.extend(k.w.latest)
	}
	for ; k.w.loaded < top; k.w.loaded++ {
		k.edit(x.ems[k.w.loaded+1], 0, 1)
	}
}

// clean checks the raised entries against capacity and reports whether the
// current schedule validates clean; once it does, no entry is over.
func (k *Kernel) clean() bool {
	x := k.x
	if k.w.bad > 0 {
		return false
	}
	for _, e := range x.raised {
		base := k.start - e.shift
		for _, h := range x.arena[e.lo : e.lo+e.n] {
			if x.load[int(h.tick-base)*k.rows+int(h.ord)] > k.tr.links[h.ord].Cap {
				return false
			}
		}
	}
	x.raised = x.raised[:0]
	return true
}

// reindex lists, per switch of the footprint, the stored units reaching it:
// a counting sort of every stored hop by its switch's slot.
func (k *Kernel) reindex() {
	x := k.x
	span := len(x.times)
	off := append(x.indexOff[:0], make([]int32, span+2)...)
	for _, em := range x.ems {
		for _, h := range x.hops(em) {
			off[int(graph.NodeID(h.node)-k.tr.lo)+2]++
		}
	}
	for s := 2; s < len(off); s++ {
		off[s] += off[s-1]
	}
	x.index = slices.Grow(x.index[:0], int(off[span+1]))[:off[span+1]]
	for i, em := range x.ems {
		for j, h := range x.hops(em) {
			s := int(graph.NodeID(h.node)-k.tr.lo) + 1
			x.index[off[s]] = reach{tick: h.tick + em.shift, i: int32(i), j: int32(j)}
			off[s]++
		}
	}
	x.indexOff = off[:span+1]
}

// Move sets v's activation to t (see Kernel for what may move).
func (k *Kernel) Move(v graph.NodeID, t Tick) {
	if !k.ok {
		panic("dynflow: Kernel.Move on a schedule that does not validate clean")
	}
	x := k.x
	slot := int(v - k.tr.lo)
	onPath := slot >= 0 && slot < len(x.times)
	act := never
	if onPath {
		act = x.times[slot]
	}
	switch {
	case !k.moving:
		k.moving, k.mv = true, v
		k.saved, k.savedAct, k.savedEms, k.savedArena = k.w, act, len(x.ems), len(x.arena)
		last := x.ems[len(x.ems)-1]
		k.mvHop = -1
		for n, h := range x.hops(last) {
			if graph.NodeID(h.node) == v {
				k.mvHop, k.mvAfter = int32(n), h.tick+last.shift-k.start-Tick(len(x.ems)-1)
				break
			}
		}
		if onPath {
			slices.SortFunc(x.index[x.indexOff[slot]:x.indexOff[slot+1]], byTick)
		}
	case v != k.mv:
		panic("dynflow: Kernel.Move of a second switch before Undo or Commit")
	}
	if act != never && t < act {
		panic("dynflow: Kernel.Move may only delay a scheduled switch")
	}

	// The window's end moves with t: the emissions up to it join the ones
	// that decide the latest arrival.
	if t > k.w.end {
		k.extend(t)
		for _, em := range x.ems[k.w.end-k.start+1 : t-k.start+1] {
			k.w.latest = max(k.w.latest, em.arrive)
		}
		k.w.end = t // the emission at t arrives no earlier than t
	}
	if onPath {
		x.times[slot] = t
		// Units reaching v in [lo, hi) take the other rule there now. Past
		// the end every unit takes one route: the first such unit is traced,
		// the others are copies of it.
		lo, hi := min(act, t), max(act, t)
		rescan, final := false, -1
		for _, rs := range [][]reach{x.index[x.indexOff[slot]:x.indexOff[slot+1]], x.extra} {
			for n := sort.Search(len(rs), func(n int) bool { return rs[n].tick >= lo }); n < len(rs) && rs[n].tick < hi; n++ {
				rescan = k.divert(rs[n], &final) || rescan
			}
		}
		if rescan {
			k.w.latest = k.w.end
			for _, em := range x.ems[:k.w.end-k.start+1] {
				k.w.latest = max(k.w.latest, em.arrive)
			}
		}
	}
	k.settle()
}

// divert re-traces the unit of r from the moving switch on, or copies
// *final, the first unit past the end this move re-traced. It reports
// whether the unit's arrival fell from the latest one, which then needs a
// rescan.
func (k *Kernel) divert(r reach, final *int) (rescan bool) {
	x, tr := k.x, k.tr
	i, j := int(r.i), int(r.j)
	old := x.ems[i]
	if i <= k.w.loaded {
		k.edit(old, j, -1)
	}
	x.undo = append(x.undo, emissionUndo{i, old})
	if old.status != Delivered {
		k.w.bad--
	}

	pureFinal := i >= int(k.w.end-k.start)
	em := x.ems[max(*final, 0)]
	if pureFinal && *final >= 0 {
		em.shift += Tick(i - *final)
		em.arrive += Tick(i - *final)
	} else {
		tr.stamp++
		tr.visit[k.mv-tr.lo] = tr.stamp
		lo := len(x.arena)
		for _, h := range x.hops(old)[:j] {
			tr.visit[graph.NodeID(h.node)-tr.lo] = tr.stamp
			h.tick += old.shift
			x.arena = append(x.arena, h)
		}
		em = emission{lo: int32(lo)}
		em.status, _, em.arrive = tr.follow(x.times, k.mv, r.tick, nil, &x.arena)
		em.n = int32(len(x.arena) - lo)
		if pureFinal {
			*final = i
		}
	}
	x.ems[i] = em
	if em.status != Delivered {
		k.w.bad++
	}
	if i <= k.w.loaded {
		k.edit(em, j, 1)
	}
	k.retraced++
	switch {
	case i > int(k.w.end-k.start): // past the end: it does not set the window
		return false
	case em.arrive >= k.w.latest:
		k.w.latest = em.arrive
		return false
	}
	return old.arrive == k.w.latest
}

// Check reports whether the kernel's schedule validates clean and its
// LatestArrival. With no move pending it is the verdict on the schedule
// the kernel was built on (or last committed), and counts as a validator
// run on the instance's registry.
func (k *Kernel) Check() (ok bool, latest Tick) {
	if k.moving {
		return k.clean(), k.w.latest
	}
	k.tr.countRun(k.in.Obs, k.w.latest-k.start+1, true)
	return k.ok, k.w.latest
}

// Undo restores the base schedule.
func (k *Kernel) Undo() {
	if !k.moving {
		return
	}
	x := k.x
	for n := len(x.journal) - 1; n >= 0; n-- {
		k.apply(x.journal[n], -x.journal[n].sign*k.in.Demand)
	}
	for n := len(x.undo) - 1; n >= 0; n-- {
		if u := x.undo[n]; u.i < k.savedEms {
			x.ems[u.i] = u.em
		}
	}
	x.ems, x.arena = x.ems[:k.savedEms], x.arena[:k.savedArena]
	if slot := int(k.mv - k.tr.lo); slot >= 0 && slot < len(x.times) {
		x.times[slot] = k.savedAct
	}
	k.w = k.saved
	k.endMove()
}

// Commit makes the moved schedule the base.
func (k *Kernel) Commit() {
	if !k.moving {
		return
	}
	k.ok = k.clean()
	k.reindex()
	k.endMove()
}

func (k *Kernel) endMove() {
	x := k.x
	x.extra, x.journal, x.undo, x.raised = x.extra[:0], x.journal[:0], x.undo[:0], x.raised[:0]
	k.moving = false
}

// Slack delays v, scheduled at tv, one tick at a time and returns the
// largest d ≤ horizon such that every delay 1..d validates clean. Each
// step is one move: it diverts the units reaching v in the tick the step
// uncovers. The kernel is left as it was.
func (k *Kernel) Slack(v graph.NodeID, tv, horizon Tick) Tick {
	steps, retraced := int64(0), k.retraced
	defer func() {
		k.Undo()
		k.in.Obs.Counter(slackSteps).Add(steps)
		k.in.Obs.Counter(slackRetraced).Add(k.retraced - retraced)
	}()
	for d := Tick(1); d <= horizon; d++ {
		steps++
		k.Move(v, tv+d)
		if ok, _ := k.Check(); !ok {
			return d - 1
		}
	}
	return horizon
}
