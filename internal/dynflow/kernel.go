package dynflow

import (
	"cmp"
	"slices"
	"sync"

	"github.com/chronus-sdn/chronus/internal/graph"
	"github.com/chronus-sdn/chronus/internal/obs"
)

// Kernel is the incremental validator under Alg. 2 and slack
// certification. It holds the traces and loads of one schedule's
// validation window and changes one switch's activation at a time:
// Move(v, t) re-traces from v only the stored units that reach v between
// its old and new activation, and loads the pure-final tail up to the new
// latest arrival; Check reports a loop or blackhole on a diverted unit,
// congestion on the link instances the move raised (no other one holds
// more than under the clean base) and the exact LatestArrival — the
// verdict Validate gives the moved schedule; Undo restores the base
// schedule, Commit makes the moved one the base.
//
// The window is stored as emission runs (see run): consecutive units that
// meet every switch on the same side of its activation take one route,
// each a tick after the last, so a run keeps one trace and a move re-traces
// the runs it splits, not their units. A link's load is read off the runs
// crossing it as they stand, so a run that shrinks, grows or dies needs no
// load update.
//
// Moves chain, but only for one switch between an Undo or Commit and the
// next, and only later: t may not precede v's current activation unless v
// is unscheduled. A move needs a clean base. A Kernel is not safe for
// concurrent use; Release returns its scratch to the pool.
type Kernel struct {
	in    *Instance
	tr    *tracer
	x     *scratch
	start Tick // the window's first emission: Start − φ(p_init)
	ok    bool // the base validates clean
	w     window

	moving bool // a move of mv is pending; Undo puts the saved state back
	mv     graph.NodeID
	// newFinal: the step changes the pure-final route (it schedules a
	// switch on the path), so the units it stores past the top are checked.
	newFinal bool
	saved    window
	savedAct Tick
	// savedArena is the arena's length before the move; divLongest is the
	// longest trace, emission to arrival, of a unit the move diverted.
	savedArena int
	divLongest Tick

	retraced int64 // units diverted, for the slack counters
	stats    runStats
	tailAt   int // where tail last found the tail run
}

// window is what a move changes: the schedule's end, the LatestArrival
// (the latest arrival of an emission up to end), and top, the last stored
// emission. Every stored unit is loaded, and top ≥ latest.
type window struct {
	end, latest, top Tick
}

// run is the stored trace of the emissions e0 .. e0+n−1: unit e0+i takes
// the hops arena[lo:lo+nh], each shift+i ticks later than recorded, and
// ends with status at arrive+i. Offsets rather than slices keep the
// scratch free of pointers, so storing and undoing runs costs no write
// barriers. A run with n = 0 is dead: a move merged or diverted all of it.
type run struct {
	e0, n  Tick
	lo, nh int32
	shift  Tick
	arrive Tick
	status TraceStatus
}

// reach is run r meeting a switch, where its hop j departs (or would, had
// the run stopped there).
type reach struct{ r, j int32 }

// crossing is run r loading a link from tick+shift on, its units a tick
// apart (tick is the hop's, as recorded); next chains a link's crossings
// by runs a move appended, newest first.
type crossing struct {
	tick    Tick
	r, next int32
}

// region is link instances of ordinal ord, ticks [a, b), whose load a move
// raised and Check has not yet compared against capacity.
type region struct {
	ord  int32
	a, b Tick
}

// piece is n consecutive units, the first emitted at e, that reach cur at
// tick t (the first unit) after the hops arena[lo:lo+nh], shift ticks
// later than recorded: what traceRuns carries on.
type piece struct {
	e, n, t, shift Tick
	cur            graph.NodeID
	lo, nh         int32
}

type event struct {
	t Tick
	d graph.Capacity
}

// hit is a run a move's window meets: c, its first unit reaching the
// moving switch at at, n units, as it stood before the move diverted any.
type hit struct {
	c     reach
	at, n Tick
}

// scratch is the working memory of Validate, ValidateJoint and Kernel,
// their compiled tracers included, recycled through a bounded freelist,
// so a solve on a fresh Instance allocates none of it.
type scratch struct {
	lw loadWindow
	// trs are the call's compiled flows (see tracers): one for Validate
	// and a Kernel, one per flow for ValidateJoint.
	trs []tracer
	// vm are the validator's instruments on registry vmReg.
	vm    validatorMetrics
	vmReg *obs.Registry
	// runs cover the emissions start .. top, each once; arena holds their
	// hops (arena2 is the spare a commit compacts them into).
	runs, savedRuns []run
	arena, arena2   []traceHop
	// index[indexOff[k]:indexOff[k+1]] are the base runs reaching slot k's
	// switch; atV are the runs reaching the moving switch.
	index    []reach
	indexOff []int32
	atV      []reach
	// A link's load is that of the runs crossing it, as they stand:
	// byLink[byLinkOff[o]:byLinkOff[o+1]] are the base runs crossing link
	// ordinal o, and the runs a move appended chain from head[o] (−1:
	// none) through added; touched lists the ordinals with a chain.
	byLink    []crossing
	byLinkOff []int32
	added     []crossing
	head      []int32
	touched   []int32
	raised    []region
	work      []piece
	hits      []hit
	events    []event
	byLo      []int32
}

// runStats counts a kernel's work in runs and in the units they hold: the
// runs and units stored at each commit, those each trial diverted, and the
// events of the run bookkeeping. Tests read them to pin the cost model.
type runStats struct {
	Commits, StoredRuns, StoredUnits          int64
	Trials, DivertedRuns, DivertedUnits       int64
	SplitsAt, SplitsDown, Merges, TailResizes int64
}

// statsSink, when set, receives the counters of every released kernel.
var statsSink func(runStats)

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
	for i := range x.trs {
		x.trs[i].in = nil // the pool keeps no graph alive
	}
	if max(cap(x.lw.val), cap(x.arena), cap(x.arena2), cap(x.byLink)) > scratchKeep {
		return
	}
	scratchPool.Lock()
	defer scratchPool.Unlock()
	if len(scratchPool.free) < scratchPoolCap {
		scratchPool.free = append(scratchPool.free, x)
	}
}

// tracers returns n tracers of x's storage, for the call to compile.
func (x *scratch) tracers(n int) []tracer {
	x.trs = slices.Grow(x.trs[:0], n)[:n]
	return x.trs
}

// countRun records one full validation of a window of the given ticks on
// r, with the instruments built once per (scratch, registry).
func (x *scratch) countRun(r *obs.Registry, ticks Tick) {
	if r == nil {
		return
	}
	if x.vmReg != r {
		x.vm, x.vmReg = newValidatorMetrics(r), r
	}
	x.vm.runs.Inc()
	x.vm.traces.Add(int64(ticks))
}

// NewKernel traces s's validation window once, one unit per run, and
// stores it.
func NewKernel(in *Instance, s *Schedule) *Kernel {
	x := getScratch()
	tr := &x.tracers(1)[0]
	tr.compile(in)
	k := &Kernel{in: in, tr: tr, x: x, start: s.Start - Tick(in.Init.Delay(in.G))}
	tr.view(s)
	x.head = slices.Grow(x.head[:0], len(tr.links))[:len(tr.links)]
	for o := range x.head {
		x.head[o] = -1
	}
	end := s.End()
	k.w = window{end: end, latest: end, top: end}
	k.traceRuns(piece{e: k.start, n: end - k.start + 1, t: k.start, cur: in.Source()})
	k.settle()
	k.reindex()
	for _, r := range x.runs {
		k.raise(r, 0, 0, r.n)
	}
	k.ok = k.clean()
	k.endMove()
	return k
}

// Release returns the kernel's scratch to the pool; k is unusable after.
func (k *Kernel) Release() {
	x := k.x
	k.endMove()
	x.runs, x.arena = x.runs[:0], x.arena[:0]
	if statsSink != nil {
		statsSink(k.stats)
	}
	k.x, k.tr = nil, nil
	putScratch(x)
}

func (x *scratch) hops(r run) []traceHop { return x.arena[r.lo : r.lo+r.nh] }

// traceRuns carries the units of p on from p.cur to their terminal status
// and stores them as runs, appended to x.runs: trace over a group of
// units. Where a switch's activation falls inside the group's arrival
// interval there, and its two rules differ, the group splits; the later
// units go on as a piece of their own, after the same hops. It returns the
// number of splits.
func (k *Kernel) traceRuns(first piece) (splits int) {
	x, tr := k.x, k.tr
	dest := tr.in.Dest()
	x.work = append(x.work[:0], first)
	for len(x.work) > 0 {
		p := x.work[len(x.work)-1]
		x.work = x.work[:len(x.work)-1]
		tr.stamp++
		lo := int32(len(x.arena))
		for i := p.lo; i < p.lo+p.nh; i++ {
			h := x.arena[i]
			h.tick += p.shift
			tr.visit[graph.NodeID(h.node)-tr.lo] = tr.stamp
			x.arena = append(x.arena, h)
		}
		cur, t, n := p.cur, p.t, p.n
		tr.visit[cur-tr.lo] = tr.stamp
		status := Looped
		for step := 0; step <= len(tr.visit); step++ {
			if cur == dest {
				status = Delivered
				break
			}
			s := cur - tr.lo
			ord := tr.rules[s][0]
			if nw := tr.rules[s][1]; nw != noRule && nw != ord {
				if act := tr.times[s]; act <= t {
					ord = nw
				} else if act < t+n {
					off := act - t
					x.work = append(x.work, piece{e: p.e + off, n: n - off, t: act, shift: off, cur: cur, lo: lo, nh: int32(len(x.arena)) - lo})
					n = off
					splits++
				}
			}
			if ord < 0 {
				status = Blackholed
				break
			}
			x.arena = append(x.arena, traceHop{node: int32(cur), ord: ord, tick: t})
			t += Tick(tr.links[ord].Delay)
			cur = tr.links[ord].To
			if tr.visit[cur-tr.lo] == tr.stamp {
				break
			}
			tr.visit[cur-tr.lo] = tr.stamp
		}
		x.runs = append(x.runs, run{e0: p.e, n: n, lo: lo, nh: int32(len(x.arena)) - lo, arrive: t, status: status})
	}
	return splits
}

// tail is the run holding the last stored unit.
func (k *Kernel) tail() int {
	runs := k.x.runs
	if i := k.tailAt; i < len(runs) && runs[i].n > 0 && runs[i].e0+runs[i].n-1 == k.w.top {
		return i
	}
	for i, r := range runs {
		if r.n > 0 && r.e0+r.n-1 == k.w.top {
			k.tailAt = i
			return i
		}
	}
	panic("dynflow: Kernel without a tail run")
}

// extend stores the emissions up to e in the tail run: past the schedule's
// end every unit takes the same route, a tick after the last.
func (k *Kernel) extend(e Tick) {
	i := k.tail()
	r := &k.x.runs[i]
	grow := e - k.w.top
	r.n += grow
	k.w.top = e
	if k.moving {
		k.stats.TailResizes++
		if k.newFinal {
			k.raise(*r, 0, r.n-grow, r.n)
		}
	}
}

// settle recomputes the LatestArrival, per run, and stores and loads more
// of the pure-final tail if the window outgrew it. Loads of emissions past
// a window that shrank stay: such a unit leaves the source after every
// mixed unit has arrived, and pure-final units never share a link
// instance, so it shares none with any unit (the argument that bounds
// Validate's window).
func (k *Kernel) settle() {
	latest := k.w.end
	for _, r := range k.x.runs {
		if r.n > 0 && r.e0 <= k.w.end {
			latest = max(latest, r.arrive+min(r.n-1, k.w.end-r.e0))
		}
	}
	k.w.latest = latest
	if latest > k.w.top {
		k.extend(latest)
	}
}

// enter chains run i, which the move appended, to every link it crosses.
func (k *Kernel) enter(i int) {
	x := k.x
	for _, h := range x.hops(x.runs[i]) {
		if x.head[h.ord] < 0 {
			x.touched = append(x.touched, h.ord)
		}
		x.added = append(x.added, crossing{tick: h.tick, r: int32(i), next: x.head[h.ord]})
		x.head[h.ord] = int32(len(x.added) - 1)
	}
}

// raise marks the link instances the units i0 .. i1−1 of r load from its
// hop j on as raised: their load rose.
func (k *Kernel) raise(r run, j int, i0, i1 Tick) {
	x := k.x
	for _, h := range x.arena[int(r.lo)+j : r.lo+r.nh] {
		a, b := h.tick+r.shift+i0, h.tick+r.shift+i1
		if n := len(x.raised) - 1; n >= 0 && x.raised[n].ord == h.ord && x.raised[n].b == a {
			x.raised[n].b = b
			continue
		}
		x.raised = append(x.raised, region{ord: h.ord, a: a, b: b})
	}
}

// clean checks the raised link instances against capacity and reports
// whether the current schedule validates clean; once it does, no link
// instance is over.
func (k *Kernel) clean() bool {
	x := k.x
	// A move starts on a clean base, and the runs it kept or grew keep their
	// status: only those it appended can loop or blackhole.
	for _, r := range x.runs[len(x.savedRuns):] {
		if r.n > 0 && r.status != Delivered {
			return false
		}
	}
	for _, g := range x.raised {
		if k.over(g) {
			return false
		}
	}
	x.raised = x.raised[:0]
	return true
}

// over reports whether a link instance of g holds more than the link's
// capacity: the units of the runs crossing the link, counted per tick
// once more of them meet g than the capacity could carry.
func (k *Kernel) over(g region) bool {
	x := k.x
	capacity, demand := k.tr.links[g.ord].Cap, k.in.Demand
	base := x.byLink[x.byLinkOff[g.ord]:x.byLinkOff[g.ord+1]]
	// A run loads a link at most once a tick: a link fewer runs cross than
	// its capacity carries units is never over.
	upper := graph.Capacity(len(base)) * demand
	for d := x.head[g.ord]; d >= 0; d = x.added[d].next {
		upper += demand
	}
	if upper <= capacity {
		return false
	}
	upper = 0
	for _, c := range base {
		if r := &x.runs[c.r]; c.tick+r.shift < g.b && c.tick+r.shift+r.n > g.a {
			upper += demand
		}
	}
	for d := x.head[g.ord]; d >= 0; d = x.added[d].next {
		c := &x.added[d]
		if r := &x.runs[c.r]; c.tick+r.shift < g.b && c.tick+r.shift+r.n > g.a {
			upper += demand
		}
	}
	if upper <= capacity {
		return false
	}
	if g.b-g.a == 1 {
		return true // every run meeting g loads its one tick
	}
	ev := x.events[:0]
	add := func(c crossing) {
		r := &x.runs[c.r]
		if a, b := c.tick+r.shift, c.tick+r.shift+r.n; a < g.b && b > g.a {
			ev = append(ev, event{max(a, g.a), demand})
			if b < g.b {
				ev = append(ev, event{b, -demand})
			}
		}
	}
	for _, c := range base {
		add(c)
	}
	for d := x.head[g.ord]; d >= 0; d = x.added[d].next {
		add(x.added[d])
	}
	slices.SortFunc(ev, func(a, b event) int { return cmp.Compare(a.t, b.t) })
	x.events = ev
	sum := graph.Capacity(0)
	for n, e := range ev {
		sum += e.d
		if (n+1 == len(ev) || ev[n+1].t != e.t) && sum > capacity {
			return true
		}
	}
	return false
}

// reindex makes the stored runs the base: it drops dead runs, compacts the
// arena once it holds more dead hops than live ones, and lists per switch
// of the footprint the runs reaching it and per footprint link their
// loads (counting sorts of every stored hop by slot and by ordinal).
func (k *Kernel) reindex() {
	x := k.x
	live, hops := x.runs[:0], 0
	for _, r := range x.runs {
		if r.n > 0 {
			live = append(live, r)
			hops += int(r.nh)
		}
	}
	x.runs = live
	if len(x.arena) > 2*hops+64 {
		k.compact()
	}
	slots := len(k.tr.times)
	off := slices.Grow(x.indexOff[:0], slots+2)[:slots+2]
	lo := slices.Grow(x.byLinkOff[:0], len(k.tr.links)+2)[:len(k.tr.links)+2]
	clear(off)
	clear(lo)
	for _, r := range x.runs {
		for _, h := range x.hops(r) {
			off[int(graph.NodeID(h.node)-k.tr.lo)+2]++
			lo[h.ord+2]++
		}
	}
	for s := 2; s < len(off); s++ {
		off[s] += off[s-1]
	}
	for o := 2; o < len(lo); o++ {
		lo[o] += lo[o-1]
	}
	x.index = slices.Grow(x.index[:0], hops)[:hops]
	x.byLink = slices.Grow(x.byLink[:0], hops)[:hops]
	for i, r := range x.runs {
		for j, h := range x.hops(r) {
			s := int(graph.NodeID(h.node)-k.tr.lo) + 1
			x.index[off[s]] = reach{r: int32(i), j: int32(j)}
			off[s]++
			x.byLink[lo[h.ord+1]] = crossing{tick: h.tick, r: int32(i)}
			lo[h.ord+1]++
		}
	}
	x.indexOff, x.byLinkOff = off[:slots+1], lo[:len(k.tr.links)+1]
	k.stats.Commits++
	k.stats.StoredRuns += int64(len(x.runs))
	k.stats.StoredUnits += int64(k.w.top - k.start + 1)
}

// compact copies the live runs' hops into the spare arena, once per hop
// list (runs split from one trace share it), and swaps the two.
func (k *Kernel) compact() {
	x := k.x
	x.byLo = x.byLo[:0]
	for i := range x.runs {
		x.byLo = append(x.byLo, int32(i))
	}
	slices.SortFunc(x.byLo, func(a, b int32) int { return cmp.Compare(x.runs[a].lo, x.runs[b].lo) })
	to := x.arena2[:0]
	prev, at := int32(-1), int32(0)
	for _, i := range x.byLo {
		r := &x.runs[i]
		if r.lo != prev {
			prev, at = r.lo, int32(len(to))
			to = append(to, x.hops(*r)...)
		}
		r.lo = at
	}
	x.arena, x.arena2 = to, x.arena[:0]
}

// Move sets v's activation to t (see Kernel for what may move).
func (k *Kernel) Move(v graph.NodeID, t Tick) {
	if !k.ok {
		panic("dynflow: Kernel.Move on a schedule that does not validate clean")
	}
	x := k.x
	slot := int(v - k.tr.lo)
	onPath := slot >= 0 && slot < len(k.tr.times)
	act := never
	if onPath {
		act = k.tr.times[slot]
	}
	switch {
	case !k.moving:
		k.moving, k.mv = true, v
		k.saved, k.savedAct, k.savedArena = k.w, act, len(x.arena)
		x.savedRuns = append(x.savedRuns[:0], x.runs...)
		if onPath {
			x.atV = append(x.atV[:0], x.index[x.indexOff[slot]:x.indexOff[slot+1]]...)
		}
		k.stats.Trials++
	case v != k.mv:
		panic("dynflow: Kernel.Move of a second switch before Undo or Commit")
	}
	if act != never && t < act {
		panic("dynflow: Kernel.Move may only delay a scheduled switch")
	}
	// Units stored past the top take the pure-final route. Unless this step
	// changes that route, they share no link instance with a unit the step
	// does not divert: one emitted by the end arrived by the latest arrival,
	// at most the top, before they leave; a later one takes the same route
	// a tick apart. This step's diverted units are checked anyway, so the
	// stored units are not.
	k.newFinal = onPath && act == never

	// The window's end moves with t: the emissions up to it join the ones
	// that decide the latest arrival.
	if t > k.w.end {
		if t > k.w.top {
			k.extend(t)
		}
		k.w.end = t
	}
	if onPath {
		k.tr.times[slot] = t
		// Units reaching v in [lo, hi) take the other rule there now; a run
		// meets that interval in one stretch of its units.
		lo, hi := min(act, t), max(act, t)
		// The runs are found first: a run that grows by a continuation
		// (see divert) is not diverted again.
		first := len(x.runs)
		x.hits = x.hits[:0]
		for _, c := range x.atV {
			r := &x.runs[c.r]
			at := r.arrive // a run that stopped at the switch reaches it there
			if c.j < r.nh {
				at = x.arena[r.lo+c.j].tick + r.shift
			}
			if r.n > 0 && at < hi && at+r.n > lo {
				x.hits = append(x.hits, hit{c: c, at: at, n: r.n})
			}
		}
		for _, h := range x.hits {
			k.divert(h, lo, hi)
		}
		// Merge only once every run is diverted, so a run that grew by a
		// merge is not diverted twice.
		for i := first; i < len(x.runs); i++ {
			k.merge(i)
			k.popDead()
		}
	}
	k.settle()
}

// divert re-traces from the moving switch the units of h's run that reach
// it in [lo, hi), as runs of their own; the units before and after them
// keep their run's trace.
func (k *Kernel) divert(h hit, lo, hi Tick) {
	x := k.x
	c, at := h.c, h.at
	r, j := x.runs[c.r], int(c.j)
	i0, i1 := max(lo-at, 0), h.n
	if hi != never {
		i1 = min(hi-at, h.n)
	}
	k.stats.DivertedRuns++
	k.stats.DivertedUnits += int64(i1 - i0)
	k.retraced += int64(i1 - i0)
	if i0 > 0 || i1 < r.n {
		k.stats.SplitsAt++
	}
	if r.e0+r.n-1 == k.w.top {
		k.stats.TailResizes++
	}
	rest := r
	rest.e0, rest.n, rest.shift, rest.arrive = r.e0+i1, r.n-i1, r.shift+i1, r.arrive+i1
	switch {
	case i0 > 0:
		x.runs[c.r].n = i0
		if rest.n > 0 {
			x.runs = append(x.runs, rest)
			x.atV = append(x.atV, reach{r: int32(len(x.runs) - 1), j: c.j})
			k.enter(len(x.runs) - 1)
		}
	case rest.n > 0:
		x.runs[c.r] = rest
	default:
		x.runs[c.r].n = 0
	}

	if i0 == 0 {
		if l := k.continued(r, j, i1, lo); l >= 0 {
			// The units continue the run before them, shifted: a slack step
			// grows that run by its one unit instead of tracing it.
			o := &x.runs[l]
			k.raise(*o, j, o.n, o.n+i1)
			o.n += i1
			k.divLongest = max(k.divLongest, o.arrive-o.e0)
			k.stats.Merges++
			return
		}
	}
	first := len(x.runs)
	k.stats.SplitsDown += int64(k.traceRuns(piece{e: r.e0 + i0, n: i1 - i0, t: at + i0, shift: r.shift + i0, cur: k.mv, lo: r.lo, nh: c.j}))
	for i := first; i < len(x.runs); i++ {
		p := x.runs[i]
		k.enter(i)
		k.raise(p, j, 0, p.n)
		k.divLongest = max(k.divLongest, p.arrive-p.e0)
		x.atV = append(x.atV, reach{r: int32(i), j: c.j})
	}
}

// continued returns the live run whose units end right before r's and
// whose route r's first m units take, shifted, now that they reach v (r's
// hop j) at its new activation, or −1. They do when the two share the
// hops to v and no switch of that run's route from v on activates between
// its last unit's arrival and theirs. It judges delivered runs only, and
// only those whose units all reach v before lo, the window's start: a run
// with units in the window is itself diverted, so its route may be stale.
func (k *Kernel) continued(r run, j int, m, lo Tick) int {
	x := k.x
	l := -1
	for i, o := range x.runs {
		if o.n > 0 && o.e0+o.n == r.e0 {
			l = i
			break
		}
	}
	if l < 0 {
		return -1
	}
	o := x.runs[l]
	if o.status != Delivered || int(o.nh) <= j {
		return -1
	}
	d := o.n // r's first unit is o's first, d ticks later
	if x.arena[o.lo+int32(j)].tick+o.shift+d-1 >= lo {
		return -1
	}
	if o.lo == r.lo {
		if r.shift != o.shift+d {
			return -1
		}
	} else {
		hr := x.hops(r)
		for n, h := range x.hops(o)[:j] {
			if g := hr[n]; g.node != h.node || g.ord != h.ord || g.tick+r.shift != h.tick+o.shift+d {
				return -1
			}
		}
	}
	tr := k.tr
	for _, h := range x.hops(o)[j:] {
		s := graph.NodeID(h.node) - tr.lo
		if nw := tr.rules[s][1]; nw != noRule && nw != tr.rules[s][0] {
			// o's last unit reaches the switch at last, r's units after it.
			last := h.tick + o.shift + d - 1
			if act := tr.times[s]; act > last && act <= last+m {
				return -1
			}
		}
	}
	return l
}

// merge joins run i to the live runs just before and after it where they
// continue one another shifted (continues), so a slack walk, which diverts
// one unit per run a step, grows a run instead of leaving a run per unit.
func (k *Kernel) merge(i int) {
	x := k.x
	if x.runs[i].n == 0 {
		return
	}
	for l := range x.runs {
		if l != i && x.runs[l].n > 0 && x.runs[l].e0+x.runs[l].n == x.runs[i].e0 && k.continues(x.runs[l], x.runs[i]) {
			x.runs[l].n += x.runs[i].n
			x.runs[i].n = 0
			k.stats.Merges++
			i = l
			break
		}
	}
	next := x.runs[i].e0 + x.runs[i].n
	for rr := range x.runs {
		if rr != i && x.runs[rr].n > 0 && x.runs[rr].e0 == next && k.continues(x.runs[i], x.runs[rr]) {
			x.runs[i].n += x.runs[rr].n
			x.runs[rr].n = 0
			k.stats.Merges++
			return
		}
	}
}

// popDead drops the dead runs this move appended from the end of the
// list, with their entries in atV (which lists them in the same order)
// and, when no other run shares them, their hops at the arena's end.
func (k *Kernel) popDead() {
	x := k.x
	for n := len(x.runs) - 1; n >= len(x.savedRuns) && x.runs[n].n == 0; n-- {
		r := x.runs[n]
		x.runs = x.runs[:n]
		x.atV = x.atV[:len(x.atV)-1]
		for j := r.nh - 1; j >= 0; j-- {
			x.head[x.arena[r.lo+j].ord] = x.added[len(x.added)-1].next
			x.added = x.added[:len(x.added)-1]
		}
		if int(r.lo+r.nh) != len(x.arena) || int(r.lo) < k.savedArena {
			continue
		}
		if !slices.ContainsFunc(x.runs, func(o run) bool { return o.lo == r.lo }) {
			x.arena = x.arena[:r.lo]
		}
	}
}

// continues reports whether b's units take a's route, shifted: b starts
// where a ends, and its first unit's trace is a's first unit's, a.n ticks
// later.
func (k *Kernel) continues(a, b run) bool {
	d := a.n
	if b.e0 != a.e0+d || b.nh != a.nh || b.status != a.status || b.arrive != a.arrive+d {
		return false
	}
	if a.lo == b.lo {
		return b.shift == a.shift+d
	}
	hb := k.x.hops(b)
	for n, h := range k.x.hops(a) {
		if g := hb[n]; g.node != h.node || g.ord != h.ord || g.tick+b.shift != h.tick+a.shift+d {
			return false
		}
	}
	return true
}

// Check reports whether the kernel's schedule validates clean and its
// LatestArrival. With no move pending it is the verdict on the schedule
// the kernel was built on (or last committed), and counts as a validator
// run on the instance's registry.
func (k *Kernel) Check() (ok bool, latest Tick) {
	if k.moving {
		return k.clean(), k.w.latest
	}
	k.x.countRun(k.in.Obs, k.w.latest-k.start+1)
	return k.ok, k.w.latest
}

// Undo restores the base schedule.
func (k *Kernel) Undo() {
	if !k.moving {
		return
	}
	x := k.x
	x.runs = append(x.runs[:0], x.savedRuns...)
	x.arena = x.arena[:k.savedArena]
	if slot := int(k.mv - k.tr.lo); slot >= 0 && slot < len(k.tr.times) {
		k.tr.times[slot] = k.savedAct
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
	for _, o := range x.touched {
		x.head[o] = -1
	}
	x.atV, x.added, x.touched, x.raised = x.atV[:0], x.added[:0], x.touched[:0], x.raised[:0]
	x.savedRuns = x.savedRuns[:0]
	k.moving, k.divLongest = false, 0
}

// Slack delays v, scheduled at tv, one tick at a time and returns the
// largest d ≤ horizon such that every delay 1..d validates clean. Each
// step is one move: it diverts the units reaching v in the tick the step
// uncovers, at most one per run. The walk stops at the first violation,
// or returns the horizon as soon as the rest of it is proven clean (see
// settled) without stepping it. The kernel is left as it was.
func (k *Kernel) Slack(v graph.NodeID, tv, horizon Tick) Tick {
	steps, retraced := int64(0), k.retraced
	defer func() {
		k.Undo()
		k.in.Obs.Counter(slackSteps).Add(steps)
		k.in.Obs.Counter(slackRetraced).Add(k.retraced - retraced)
	}()
	x := k.x
	others := k.start
	for slot, t := range k.tr.times {
		if t != never && slot != int(v-k.tr.lo) {
			others = max(others, t)
		}
	}
	// longest bounds every stored trace's time from emission to arrival:
	// the base's, then those of the units the steps divert. a is v's offset
	// on the pure final route, the tail run's.
	longest, a := Tick(0), Tick(0)
	for _, r := range x.runs {
		longest = max(longest, r.arrive-r.e0)
	}
	tail := x.runs[k.tail()]
	for _, h := range x.hops(tail) {
		if graph.NodeID(h.node) == v {
			a = h.tick + tail.shift - tail.e0
			break
		}
	}
	for d := Tick(1); d <= horizon; d++ {
		steps++
		k.Move(v, tv+d)
		if ok, _ := k.Check(); !ok {
			return d - 1
		}
		longest = max(longest, k.divLongest)
		if settled(tv+d, a, others, longest) {
			return horizon
		}
	}
	return horizon
}

// settled reports whether a clean pending move of the switch to act stays
// clean when delayed further, one tick at a time, for ever. a is the
// switch's offset on the pure final route (0 off it), others the latest
// activation of any other switch of the tracer's span (no other switch has
// a rule for the flow), or the window's first emission if later; longest
// (L below) bounds every stored trace's time from emission to arrival.
//
// A unit emitted at e ≥ others takes every other switch's new rule, so its
// trace depends only on act − e: delaying the switch one tick turns the
// traces of those units into the next emission's, shifted one tick later.
// The one unit that changes route is the one reaching the switch at act;
// it is emitted a ticks earlier. Every unit emitted before others reaches
// the switch, if at all, by others + L, and no unit loads a link later
// than L after its emission. So when act − a > others + L, the delayed
// schedule's load on a link instance before act − a is the current one,
// and at or after it the current one a tick earlier (all the units loading
// it were emitted from others on), and every trace is a current trace or
// one shifted: it is clean, and by induction so is every longer delay.
func settled(act, a, others, longest Tick) bool {
	return act-a > others+longest
}
