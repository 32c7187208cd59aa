package core

import (
	"math"

	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/graph"
)

// interval is a closed range of departure ticks on a link during which one
// unit of the flow (demand d) occupies the link per tick.
type interval struct {
	lo, hi dynflow.Tick
}

type linkKey struct {
	from, to graph.NodeID
}

// sinceForever marks a ramp that has been flowing since before the
// scheduling window (the initial path's steady state).
const sinceForever = dynflow.Tick(math.MinInt64 / 4)

// fastState is the ModeFast engine behind Greedy: a closed-form account of
// every unit in flight, exploiting the structure of a single dynamic flow.
//
// Because the source emits one unit per tick and all updates happen at or
// before the current tick, the set of departure ticks on any link is a
// union of "ramps" {e + c : e in E} over contiguous emission ranges E. The
// active path carries one infinite ramp per link; every past redirection
// truncated the then-active suffix into finite intervals (draining
// traffic). A candidate update of switch v at tick t is safe when
//
//   - no draining unit arrives at v at or after t (such units carry
//     histories the snapshot checks cannot see, so the update is deferred
//     until the drain passes — at most a path delay), and
//   - the redirected units' new route shares no tick with a draining
//     interval or with the about-to-be-truncated old suffix on any link
//     that cannot carry the combined load.
//
// The committed state is collision-free by induction: truncation only
// shrinks occupancy, and every new infinite ramp was checked against all
// finite intervals over its entire future.
type fastState struct {
	in *dynflow.Instance
	// active is the path currently carried from the source. A unit emitted
	// at e departs active[i] toward active[i+1] at e + offset[i]; that
	// ramp has been in effect for departures since activeSince[i].
	active      graph.Path
	activePos   []int32 // node -> index on active, -1 off-path
	offset      []dynflow.Tick
	activeSince []dynflow.Tick
	// drains holds the finite occupancy intervals per link (departure
	// ticks), each representing demand d.
	drains map[linkKey][]interval
	// arrivesUntil[v] is the latest tick at which a draining (non-active)
	// unit can still arrive at v.
	arrivesUntil map[graph.NodeID]dynflow.Tick

	// ws supplies the pooled node-indexed scratch (activePos mirror and
	// route-walk visit stamps); routeLinks/routeOffs are per-solve route
	// buffers reused across walks.
	ws         *workspace
	routeLinks []linkKey
	routeOffs  []dynflow.Tick
}

func newFastState(in *dynflow.Instance, ws *workspace) *fastState {
	fs := &fastState{
		in:           in,
		drains:       make(map[linkKey][]interval),
		arrivesUntil: make(map[graph.NodeID]dynflow.Tick),
		ws:           ws,
	}
	fs.activePos = ws.activePos[:in.G.NumNodes()]
	for i := range fs.activePos {
		fs.activePos[i] = -1
	}
	since := make([]dynflow.Tick, len(in.Init))
	for i := range since {
		since[i] = sinceForever
	}
	fs.setActive(in.Init, since)
	return fs
}

// setActive installs p as the active path; since[i] is the first departure
// tick of the ramp on link (p[i], p[i+1]). activePos was initialized to
// all -1 by newFastState; each install clears only the outgoing path.
func (fs *fastState) setActive(p graph.Path, since []dynflow.Tick) {
	for _, v := range fs.active {
		if int(v) < len(fs.activePos) {
			fs.activePos[v] = -1
		}
	}
	fs.active = p
	for i, v := range p {
		if int(v) < len(fs.activePos) {
			fs.activePos[v] = int32(i)
		}
	}
	fs.activeSince = since
	fs.offset = fs.offset[:0]
	var c dynflow.Tick
	for i := range p {
		fs.offset = append(fs.offset, c)
		if i+1 < len(p) {
			l, ok := fs.in.G.Link(p[i], p[i+1])
			if !ok {
				// The active path always follows real links; a dangling
				// rule would have been rejected by LoopFree.
				break
			}
			c += dynflow.Tick(l.Delay)
		}
	}
}

// route follows the configuration at tick t from v's new next hop to the
// destination, returning the link sequence with cumulative departure
// offsets relative to the moment a unit leaves v. It returns ok=false on a
// cycle or missing rule (callers run LoopFree first, so this is a guard).
func (fs *fastState) route(s *dynflow.Schedule, v graph.NodeID, t dynflow.Tick) (links []linkKey, offs []dynflow.Tick, ok bool) {
	in := fs.in
	cur := v
	next := in.NewNext(v)
	var c dynflow.Tick
	fs.ws.visitGen++
	fs.mark(v)
	links = fs.routeLinks[:0]
	offs = fs.routeOffs[:0]
	for {
		if next == graph.Invalid || fs.marked(next) {
			return nil, nil, false
		}
		l, lok := in.G.Link(cur, next)
		if !lok {
			return nil, nil, false
		}
		links = append(links, linkKey{from: cur, to: next})
		offs = append(offs, c)
		c += dynflow.Tick(l.Delay)
		cur = next
		if cur == in.Dest() {
			fs.routeLinks, fs.routeOffs = links, offs
			return links, offs, true
		}
		fs.mark(cur)
		next = snapshotNext(in, s, cur, t)
	}
}

func (fs *fastState) mark(v graph.NodeID) {
	if uint64(v) < uint64(len(fs.ws.visit)) {
		fs.ws.visit[v] = fs.ws.visitGen
	}
}

func (fs *fastState) marked(v graph.NodeID) bool {
	return uint64(v) < uint64(len(fs.ws.visit)) && fs.ws.visit[v] == fs.ws.visitGen
}

// tryUpdate checks whether flipping v at tick t keeps the data plane
// congestion-free and commits the flip when it does. Loop-freedom must
// already have been established via LoopFree; s must contain all flips
// accepted so far, excluding v's.
//
// On rejection, retry is the earliest tick at which the same attempt could
// succeed with the configuration unchanged (every rejection condition is
// monotone in t: draining intervals only recede), or neverTick when only a
// configuration change can help. The scheduler uses the hints to jump over
// idle drain ticks instead of probing one tick at a time.
func (fs *fastState) tryUpdate(s *dynflow.Schedule, v graph.NodeID, t dynflow.Tick) (ok bool, retry dynflow.Tick) {
	in := fs.in
	// Defer while draining units still arrive at v: their histories are
	// not visible to snapshot checks.
	if until, has := fs.arrivesUntil[v]; has && until >= t {
		return false, until + 1
	}
	ai := -1
	if int(v) < len(fs.activePos) {
		ai = int(fs.activePos[v])
	}
	if ai < 0 {
		// No traffic reaches v now or before the drain horizon: the rule
		// change is inert until upstream flips, whose own checks will see
		// it via the snapshot.
		return true, 0
	}
	links, offs, routeOK := fs.route(s, v, t)
	if !routeOK {
		return false, neverTick
	}
	// Emissions e >= e0 are redirected; e < e0 continue on the old suffix.
	e0 := t - fs.offset[ai]

	// truncFor returns the truncated occupancy the old active suffix would
	// keep on route link (a, b) after this flip, computed on demand from
	// the active-position index (the suffix link at position i drains its
	// last unit at e0-1+offset[i]).
	truncFor := func(a, b graph.NodeID) (interval, bool) {
		if int(a) >= len(fs.activePos) {
			return interval{}, false
		}
		i := int(fs.activePos[a])
		if i < ai || i+1 >= len(fs.active) || fs.active[i+1] != b {
			return interval{}, false
		}
		iv := interval{lo: fs.activeSince[i], hi: e0 - 1 + fs.offset[i]}
		return iv, iv.lo <= iv.hi
	}

	// Check every link of the new route against finite occupancies. On
	// rejection, accumulate the earliest tick at which every currently
	// colliding interval has drained past the tail start.
	var retryAt dynflow.Tick = -1
	for i, lk := range links {
		l, lok := in.G.Link(lk.from, lk.to)
		if !lok {
			return false, neverTick
		}
		tailLo := t + offs[i]
		var collide []interval
		var worstHi dynflow.Tick
		for _, iv := range fs.drains[lk] {
			if iv.hi >= tailLo {
				collide = append(collide, iv)
				if iv.hi > worstHi {
					worstHi = iv.hi
				}
			}
		}
		if tv, has := truncFor(lk.from, lk.to); has && tv.hi >= tailLo {
			collide = append(collide, tv)
			if tv.hi > worstHi {
				worstHi = tv.hi
			}
		}
		if len(collide) == 0 {
			continue
		}
		// The tail contributes demand d at every tick >= tailLo; each
		// collider contributes d on its own ticks.
		k := int(l.Cap/in.Demand) - 1 // concurrent drains the link absorbs
		if k >= 1 && (len(collide) <= k || overlapDepth(collide, tailLo) <= k) {
			continue
		}
		if r := worstHi - offs[i] + 1; r > retryAt {
			retryAt = r
		}
	}
	if retryAt >= 0 {
		if retryAt <= t {
			retryAt = t + 1
		}
		return false, retryAt
	}

	// Commit: truncate the old suffix into drains, record arrival
	// horizons, install the new active path, and prune stale intervals.
	for i := ai; i+1 < len(fs.active); i++ {
		lk := linkKey{from: fs.active[i], to: fs.active[i+1]}
		iv := interval{lo: fs.activeSince[i], hi: e0 - 1 + fs.offset[i]}
		if iv.lo > iv.hi {
			continue
		}
		fs.drains[lk] = append(fs.drains[lk], iv)
		arr := e0 - 1 + fs.offset[i+1]
		if cur, ok := fs.arrivesUntil[fs.active[i+1]]; !ok || arr > cur {
			fs.arrivesUntil[fs.active[i+1]] = arr
		}
	}
	newActive := append(graph.Path(nil), fs.active[:ai+1]...)
	newSince := append([]dynflow.Tick(nil), fs.activeSince[:ai]...)
	for i, lk := range links {
		newSince = append(newSince, t+offs[i])
		newActive = append(newActive, lk.to)
	}
	newSince = append(newSince, 0) // unused terminal slot, keeps lengths equal
	fs.setActive(newActive, newSince)
	fs.prune(t)
	return true, 0
}

// neverTick marks a rejection that only a configuration change can lift.
const neverTick = dynflow.Tick(math.MaxInt64 / 4)

// overlapDepth returns the maximum number of intervals simultaneously
// covering a single tick >= floor.
func overlapDepth(ivs []interval, floor dynflow.Tick) int {
	best := 0
	for _, a := range ivs {
		lo := maxTick(a.lo, floor)
		if lo > a.hi {
			continue
		}
		// Depth at a.lo clamped to floor (depth changes only at interval
		// starts, so checking each clamped start is sufficient).
		depth := 0
		for _, b := range ivs {
			if b.lo <= lo && lo <= b.hi {
				depth++
			}
		}
		if depth > best {
			best = depth
		}
	}
	return best
}

// prune drops intervals that can no longer collide with any future tail
// (every future tail departs at >= t).
func (fs *fastState) prune(t dynflow.Tick) {
	for lk, ivs := range fs.drains {
		kept := ivs[:0]
		for _, iv := range ivs {
			if iv.hi >= t {
				kept = append(kept, iv)
			}
		}
		if len(kept) == 0 {
			delete(fs.drains, lk)
		} else {
			fs.drains[lk] = kept
		}
	}
}

// drainHorizon returns the latest tick at which any draining unit is still
// in flight; past it the configuration's traffic is static.
func (fs *fastState) drainHorizon() dynflow.Tick {
	var h dynflow.Tick
	first := true
	for _, until := range fs.arrivesUntil {
		if first || until > h {
			h = until
			first = false
		}
	}
	return h
}

func maxTick(a, b dynflow.Tick) dynflow.Tick {
	if a > b {
		return a
	}
	return b
}
