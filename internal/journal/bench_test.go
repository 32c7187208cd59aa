package journal

import (
	"strconv"
	"testing"

	"github.com/chronus-sdn/chronus/internal/obs"
)

// BenchmarkJournalAppend is the journal's share of the update path:
// 1 000 events of the emulation's mix recorded, then a Flush, on a temp
// directory with FsyncNever, so the number is encoding and writes, not
// the disk's sync latency.
func BenchmarkJournalAppend(b *testing.B) {
	const perFlush = 1000
	events := make([]obs.Event, perFlush)
	for i := range events {
		e := obs.Event{Seq: uint64(i + 1), VT: int64(i), Name: obs.EvEmuRate, Attrs: []obs.Attr{
			{K: obs.KeyLink, V: "v3>v4"}, {K: obs.KeyRate, V: strconv.Itoa(i % 17)}}}
		if i%4 == 0 {
			e.Name, e.Dur = obs.SpanEventName, 5
			e.Attrs = []obs.Attr{{K: "span", V: strconv.Itoa(i)}, {K: "parent", V: "1"},
				{K: "op", V: obs.OpCtlSend}, {K: obs.KeySwitch, V: "v7"}, {K: obs.KeyXid, V: strconv.Itoa(i)}}
		}
		events[i] = e
	}
	w, err := Open(Options{Dir: b.TempDir(), Fsync: FsyncNever})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range events {
			w.Record(e)
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*perFlush), "ns/event")
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
}
