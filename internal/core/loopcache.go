package core

import (
	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/graph"
)

// loopChecker answers Algorithm 4 queries against a fixed configuration
// snapshot in amortized O(1) per switch: between two accepted updates the
// configuration does not change, so walk destinations can be memoized with
// path compression. Greedy rebuilds the checker after every acceptance; the
// rebuild is cheap because all node-indexed state lives in the pooled
// workspace as generation-stamped arrays — a rebuild bumps two generations
// and restamps the active path instead of reallocating.
type loopChecker struct {
	in  *dynflow.Instance
	s   *dynflow.Schedule
	t   dynflow.Tick
	cur graph.Path
	ws  *workspace
}

func (lc *loopChecker) posOf(v graph.NodeID) (int, bool) {
	ws := lc.ws
	if uint64(v) >= uint64(len(ws.pos)) || ws.posStamp[v] != ws.posGen {
		return -1, false
	}
	return int(ws.pos[v]), true
}

type resolveKind uint8

const (
	resolveDest resolveKind = iota + 1 // reaches the destination off-path
	resolvePath                        // joins the active path
	resolveDead                        // cycle among off-path switches or blackhole
)

type resolveResult struct {
	kind resolveKind
	pos  int // active-path index for resolvePath
}

// newLoopChecker snapshots the configuration at tick t. It returns a
// value, so the checker Greedy rebuilds after every acceptance lives on
// its caller's stack.
func newLoopChecker(in *dynflow.Instance, s *dynflow.Schedule, t dynflow.Tick, ws *workspace) loopChecker {
	cur := activePathInto(ws.pathA[:0], in, s, t, ws)
	ws.pathA = cur
	ws.posGen++
	ws.resGen++
	for i, u := range cur {
		if uint64(u) < uint64(len(ws.pos)) {
			ws.pos[u] = int32(i)
			ws.posStamp[u] = ws.posGen
		}
	}
	return loopChecker{in: in, s: s, t: t, cur: cur, ws: ws}
}

// ok reports whether updating v at the snapshot tick is loop-free
// (Algorithm 4): the redirected route from v's new next hop must reach the
// destination or rejoin the active path strictly downstream of v, without
// cycling or blackholing.
func (lc *loopChecker) ok(v graph.NodeID) bool {
	w := lc.in.NewNext(v)
	if w == graph.Invalid {
		return true
	}
	iv, onPath := lc.posOf(v)
	if p, ok := lc.posOf(w); ok {
		if !onPath {
			return true // v carries no fresh traffic; w's position is moot
		}
		return p > iv
	}
	r := lc.walk(w)
	switch r.kind {
	case resolveDead:
		return false
	case resolveDest:
		return true
	default: // resolvePath
		if !onPath {
			return true
		}
		return r.pos > iv
	}
}

// walk resolves where the snapshot configuration leads from off-path node
// x, memoizing every node on the way in the workspace's stamped arrays.
func (lc *loopChecker) walk(x graph.NodeID) resolveResult {
	ws := lc.ws
	ws.walkGen++
	trail := ws.trail[:0]
	cur := x
	var result resolveResult
	for {
		if uint64(cur) < uint64(len(ws.resStamp)) && ws.resStamp[cur] == ws.resGen {
			result = resolveResult{kind: ws.resKind[cur], pos: int(ws.resPos[cur])}
			break
		}
		if p, ok := lc.posOf(cur); ok {
			result = resolveResult{kind: resolvePath, pos: p}
			break
		}
		if cur == lc.in.Dest() {
			result = resolveResult{kind: resolveDest}
			break
		}
		if uint64(cur) < uint64(len(ws.walkMark)) && ws.walkMark[cur] == ws.walkGen {
			result = resolveResult{kind: resolveDead}
			break
		}
		if uint64(cur) < uint64(len(ws.walkMark)) {
			ws.walkMark[cur] = ws.walkGen
		}
		trail = append(trail, cur)
		next := snapshotNext(lc.in, lc.s, cur, lc.t)
		if next == graph.Invalid {
			result = resolveResult{kind: resolveDead}
			break
		}
		cur = next
	}
	for _, u := range trail {
		if uint64(u) < uint64(len(ws.resStamp)) {
			ws.resStamp[u] = ws.resGen
			ws.resKind[u] = result.kind
			ws.resPos[u] = int32(result.pos)
		}
	}
	ws.trail = trail
	return result
}
