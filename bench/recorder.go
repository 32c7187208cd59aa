package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime/metrics"
	"syscall"
	"time"
	"unsafe"
)

// span is one layer-boundary record of a traced round. Parent is the
// index of the enclosing span in the round's span list, -1 for an op's
// root span.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// opSample is what one executed op reports to the driver process. The
// timed quantities cover the op's timed section only (boot excluded).
type opSample struct {
	WallNs  int64  `json:"wall_ns"`
	CPUNs   int64  `json:"cpu_ns"`
	AllocB  uint64 `json:"alloc_b"`
	Mallocs uint64 `json:"mallocs"`
	GCs     uint64 `json:"gcs"`
	// BootNs is the untimed boot that preceded the timed section.
	BootNs int64 `json:"boot_ns"`
	// Makespan is the op's update time in virtual ticks.
	Makespan int64 `json:"makespan"`
	// Digest hashes the op's output bytes, where it has any.
	Digest string `json:"digest,omitempty"`
	// Failed names why the op counts as failed; empty when it passed.
	Failed string `json:"failed,omitempty"`
	// Counts are the op's deterministic tallies (events, FlowMods,
	// validator runs, ...). They, Makespan and Digest are equal in every
	// round or the op is reported as nondeterministic.
	Counts map[string]int64 `json:"counts"`
	// LayerNs is each layer's self time inside the op (traced rounds).
	LayerNs map[string]int64 `json:"layer_ns,omitempty"`
}

// recorder measures the timed section of each op and, in traced rounds,
// the layer spans inside it. Untraced rounds take no per-layer
// timestamps: layer() costs one branch.
type recorder struct {
	traced bool
	t0     time.Time
	op     int
	spans  []span
	stack  []int

	samples [3]metrics.Sample
	wall0   time.Time
	cpu0    int64
	alloc0  uint64
	malloc0 uint64
	gc0     uint64
}

func newRecorder(traced bool) *recorder {
	r := &recorder{traced: traced, t0: time.Now()}
	r.samples[0].Name = "/gc/heap/allocs:bytes"
	r.samples[1].Name = "/gc/heap/allocs:objects"
	r.samples[2].Name = "/gc/cycles/total:gc-cycles"
	return r
}

// cpuNow returns the CPU time this process has used, all threads, in
// nanoseconds. CLOCK_PROCESS_CPUTIME_ID is read directly because
// getrusage advances in scheduler ticks, coarser than most ops here.
func cpuNow() int64 {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

// begin opens op i's timed section.
func (r *recorder) begin(i int) {
	r.op = i
	metrics.Read(r.samples[:])
	r.alloc0 = r.samples[0].Value.Uint64()
	r.malloc0 = r.samples[1].Value.Uint64()
	r.gc0 = r.samples[2].Value.Uint64()
	r.cpu0 = cpuNow()
	r.wall0 = time.Now()
	if r.traced {
		r.push("op")
	}
}

// end closes the timed section and returns its measurements.
func (r *recorder) end() opSample {
	if r.traced {
		r.pop()
	}
	wall := time.Since(r.wall0)
	cpu := cpuNow() - r.cpu0
	metrics.Read(r.samples[:])
	s := opSample{
		WallNs:  wall.Nanoseconds(),
		CPUNs:   cpu,
		AllocB:  r.samples[0].Value.Uint64() - r.alloc0,
		Mallocs: r.samples[1].Value.Uint64() - r.malloc0,
		GCs:     r.samples[2].Value.Uint64() - r.gc0,
		Counts:  map[string]int64{},
	}
	if r.traced {
		s.LayerNs = r.selfTimes(r.op)
	}
	return s
}

func (r *recorder) push(name string) {
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Op: r.op, ID: id, Parent: parent, Start: time.Since(r.t0).Nanoseconds()})
	r.stack = append(r.stack, id)
}

func (r *recorder) pop() {
	n := len(r.stack)
	r.spans[r.stack[n-1]].End = time.Since(r.t0).Nanoseconds()
	r.stack = r.stack[:n-1]
}

// layer runs f as one layer span named name (a plain call when the
// round is untraced).
func (r *recorder) layer(name string, f func()) {
	if !r.traced {
		f()
		return
	}
	r.push(name)
	f()
	r.pop()
}

// selfTimes returns, per span name, the self time inside op: each
// span's duration minus its children's. The op's own root span reports
// as "bench.other", the harness glue between layers.
func (r *recorder) selfTimes(op int) map[string]int64 {
	first := len(r.spans)
	for first > 0 && r.spans[first-1].Op == op {
		first--
	}
	layer := func(s span) string {
		if s.Parent < 0 {
			return "bench.other"
		}
		return s.Name
	}
	self := map[string]int64{}
	for _, s := range r.spans[first:] {
		d := s.End - s.Start
		self[layer(s)] += d
		if s.Parent >= 0 {
			self[layer(r.spans[s.Parent])] -= d
		}
	}
	return self
}

// writeSpans writes the round's spans as JSON lines.
func (r *recorder) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
