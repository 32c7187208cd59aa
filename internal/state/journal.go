package state

import (
	"github.com/chronus-sdn/chronus/internal/journal"
	"github.com/chronus-sdn/chronus/internal/obs"
)

// FromJournal builds a store purely from a journal directory — the
// offline path behind `mutp -state-from`. The replay folds every
// recorded run; sequence regressions between runs become run
// boundaries, so the resulting run numbering (and therefore the
// snapshot and drift bodies) matches a live daemon that prefed the same
// directory at boot: N-1 regressions either way yield run N.
func FromJournal(dir string, o Options) (*Store, journal.ReadStats, error) {
	events, stats, err := journal.ReadAll(dir, 0)
	if err != nil {
		return nil, stats, err
	}
	o.JournalDir = dir
	s := New(o)
	s.Prefeed(events)
	return s, stats, nil
}

// replayLinkPoints recovers a link's utilization samples that the
// in-memory ring has evicted: it replays the journal, tracks run
// boundaries the same way the live fold does, and returns the FINAL
// run's emu.rate points for the link with since <= tick < before
// (before < 0 means no upper bound), last sample per tick. Replay
// errors degrade to "no backfill" — the ring data is still served.
func replayLinkPoints(dir, link string, since, before int64) []TimelinePoint {
	var pts []TimelinePoint
	var lastSeq uint64
	_, err := journal.Replay(dir, 0, func(e obs.Event) error {
		if e.Seq <= lastSeq {
			// Run boundary: only the final run's samples matter, so
			// start over.
			pts = pts[:0]
		}
		lastSeq = e.Seq
		if e.Name != obs.EvEmuRate || e.Attr(obs.KeyLink) != link {
			return nil
		}
		if e.VT < since || (before >= 0 && e.VT >= before) {
			return nil
		}
		if n := len(pts); n > 0 && pts[n-1].At == e.VT {
			pts[n-1].Total = e.AttrInt(obs.KeyTotal)
			return nil
		}
		pts = append(pts, TimelinePoint{At: e.VT, Total: e.AttrInt(obs.KeyTotal)})
		return nil
	})
	if err != nil {
		return nil
	}
	return pts
}
