package core

import (
	"sync"

	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/graph"
)

// workspace is the per-solve scratch arena: every node-indexed structure the
// greedy scheduler, the loop checker, the dependency analysis and the fast
// state rebuild per round lives here as a generation-stamped array instead
// of a freshly allocated map. Resetting a structure is a generation bump
// (O(1)), not a reallocation, so the working state survives across greedy
// rounds; whole workspaces are recycled across solves through a bounded
// freelist (see getWorkspace), so steady-state solving allocates no
// node-sized scratch at all.
//
// A stamped entry is live when its stamp equals the current generation.
// Consumers bump the generation *before* each use, so generations are
// always ≥ 1 and the zero-valued arrays of a fresh workspace never alias a
// live entry. Generations persist across pooling and only ever increase.
type workspace struct {
	n int // node count the arrays are sized for

	// seen marks nodes visited by activePathInto.
	seen    []uint64
	seenGen uint64

	// pos is the active-path index map shared by the loop checker and the
	// dependency analysis (their uses never overlap within a solve).
	pos      []int32
	posStamp []uint64
	posGen   uint64

	// res memoizes loopChecker.walk resolutions for one configuration
	// snapshot; walkMark detects cycles within a single walk.
	resKind  []resolveKind
	resPos   []int32
	resStamp []uint64
	resGen   uint64
	walkMark []uint64
	walkGen  uint64
	trail    []graph.NodeID

	// Exact-mode backoff state; an acceptance resets it by bumping the
	// generation. sleepCount tracks live entries so the reset (and its
	// metric) fires only when there is state to drop.
	sleep      []dynflow.Tick
	strikes    []uint32
	sleepStamp []uint64
	sleepGen   uint64
	sleepCount int

	// pend marks the pending set during dependency analysis.
	pend    []uint64
	pendGen uint64

	// pathA holds the loop checker's active path, pathB the dependency
	// analysis's; two buffers because a live loopChecker must not see its
	// path clobbered by a concurrent-in-scope dependency pass.
	pathA graph.Path
	pathB graph.Path

	// Fast-mode arrays: activePos is fastState's node→active-index map,
	// visit/visitGen its route-walk cycle marks.
	activePos []int32
	visit     []uint64
	visitGen  uint64
}

func newWorkspace(n int) *workspace {
	return &workspace{
		n:          n,
		seen:       make([]uint64, n),
		pos:        make([]int32, n),
		posStamp:   make([]uint64, n),
		resKind:    make([]resolveKind, n),
		resPos:     make([]int32, n),
		resStamp:   make([]uint64, n),
		walkMark:   make([]uint64, n),
		sleep:      make([]dynflow.Tick, n),
		strikes:    make([]uint32, n),
		sleepStamp: make([]uint64, n),
		pend:       make([]uint64, n),
		activePos:  make([]int32, n),
		visit:      make([]uint64, n),
	}
}

// bytes reports the workspace's retained scratch capacity, the quantity the
// pooled-bytes gauge accounts for parked workspaces.
func (ws *workspace) bytes() int64 {
	b := int64(cap(ws.seen)+cap(ws.posStamp)+cap(ws.resStamp)+cap(ws.walkMark)+cap(ws.sleepStamp)+cap(ws.pend)+cap(ws.visit)) * 8
	b += int64(cap(ws.pos)+cap(ws.resPos)+cap(ws.activePos)) * 4
	b += int64(cap(ws.resKind))
	b += int64(cap(ws.sleep)) * 8
	b += int64(cap(ws.strikes)) * 4
	b += int64(cap(ws.trail)+cap(ws.pathA)+cap(ws.pathB)) * int64(8)
	return b
}

// sleepOf returns v's backoff deadline and whether any backoff entry exists
// for v in the current epoch (mirroring the map's two-value read).
func (ws *workspace) sleepOf(v graph.NodeID) (dynflow.Tick, bool) {
	if uint64(v) < uint64(len(ws.sleep)) && ws.sleepStamp[v] == ws.sleepGen {
		return ws.sleep[v], true
	}
	return 0, false
}

// bumpStrike increments v's rejection count within the current backoff
// epoch and returns the new count.
func (ws *workspace) bumpStrike(v graph.NodeID) uint32 {
	if uint64(v) >= uint64(len(ws.strikes)) {
		return 1
	}
	if ws.sleepStamp[v] != ws.sleepGen {
		ws.sleepStamp[v] = ws.sleepGen
		ws.strikes[v] = 0
		ws.sleep[v] = 0
		ws.sleepCount++
	}
	ws.strikes[v]++
	return ws.strikes[v]
}

// setSleep records v's backoff deadline (bumpStrike must have stamped v).
func (ws *workspace) setSleep(v graph.NodeID, until dynflow.Tick) {
	if uint64(v) < uint64(len(ws.sleep)) {
		ws.sleep[v] = until
	}
}

// resetSleep opens a fresh backoff epoch, dropping every entry in O(1).
func (ws *workspace) resetSleep() {
	ws.sleepGen++
	ws.sleepCount = 0
}

// activePathInto appends the path taken by freshly emitted flow under the
// configuration at tick t to p (normally a recycled buffer sliced to zero),
// stopping at the destination or the first repeated switch (where a cycle
// in the static configuration closes).
func activePathInto(p graph.Path, in *dynflow.Instance, s *dynflow.Schedule, t dynflow.Tick, ws *workspace) graph.Path {
	ws.seenGen++
	cur := in.Source()
	for cur != graph.Invalid {
		if uint64(cur) >= uint64(len(ws.seen)) || ws.seen[cur] == ws.seenGen {
			break
		}
		p = append(p, cur)
		ws.seen[cur] = ws.seenGen
		if cur == in.Dest() {
			break
		}
		cur = snapshotNext(in, s, cur, t)
	}
	return p
}

// wsPool is the bounded freelist recycling workspaces across solves. A
// plain mutex-guarded slice instead of sync.Pool: the GC never evicts
// entries behind our back, so the pooled-bytes gauge is exact and the
// retained memory is strictly bounded by wsPoolCap arenas.
var wsPool struct {
	sync.Mutex
	free  []*workspace
	bytes int64
}

// wsPoolCap bounds how many idle workspaces the freelist retains.
const wsPoolCap = 8

// getWorkspace returns a workspace sized for n nodes, recycling a pooled
// one when available (grown in place if it is too small).
func getWorkspace(n int) *workspace {
	wsPool.Lock()
	if len(wsPool.free) > 0 {
		ws := wsPool.free[len(wsPool.free)-1]
		wsPool.free = wsPool.free[:len(wsPool.free)-1]
		wsPool.bytes -= ws.bytes()
		wsPool.Unlock()
		if ws.n < n {
			grown := newWorkspace(n)
			grown.seenGen = ws.seenGen
			grown.posGen = ws.posGen
			grown.resGen = ws.resGen
			grown.walkGen = ws.walkGen
			grown.sleepGen = ws.sleepGen
			grown.pendGen = ws.pendGen
			grown.visitGen = ws.visitGen
			ws = grown
		}
		return ws
	}
	wsPool.Unlock()
	return newWorkspace(n)
}

// putWorkspace parks ws for reuse; at capacity it is dropped for the GC.
func putWorkspace(ws *workspace) {
	if ws == nil {
		return
	}
	wsPool.Lock()
	if len(wsPool.free) < wsPoolCap {
		wsPool.free = append(wsPool.free, ws)
		wsPool.bytes += ws.bytes()
	}
	wsPool.Unlock()
}

// PooledBytes reports the scratch bytes currently parked in the workspace
// freelist — the value behind the chronus_solver_pool_bytes gauge.
func PooledBytes() int64 {
	wsPool.Lock()
	defer wsPool.Unlock()
	return wsPool.bytes
}
