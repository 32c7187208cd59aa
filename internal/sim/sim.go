// Package sim provides a deterministic discrete-event simulation kernel:
// a virtual clock and an event queue with stable FIFO ordering among
// same-time events. The data-plane emulator (internal/emu), the switch
// agents and the clock-sync model all run on this kernel, which is what
// makes the Mininet-substitute experiments reproducible run to run.
package sim

import (
	"container/heap"
	"fmt"
)

// Time is virtual time in emulator ticks (the emulator interprets one tick
// as one millisecond).
type Time int64

// Kernel is a discrete-event scheduler. The zero value is not usable; call
// NewKernel.
type Kernel struct {
	now   Time
	seq   uint64
	queue eventQueue
}

type event struct {
	at  Time
	seq uint64
	fn  func()
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

// NewKernel returns a kernel with the clock at zero.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// At schedules fn at absolute time t. Scheduling in the past panics: it
// indicates a causality bug in the caller.
func (k *Kernel) At(t Time, fn func()) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling at %d before now %d", t, k.now))
	}
	k.seq++
	heap.Push(&k.queue, &event{at: t, seq: k.seq, fn: fn})
}

// Step executes the next event; it reports false when the queue is empty.
func (k *Kernel) Step() bool {
	if len(k.queue) == 0 {
		return false
	}
	ev := heap.Pop(&k.queue).(*event)
	k.now = ev.at
	ev.fn()
	return true
}

// RunUntil executes events with time <= t, then advances the clock to t.
// A safety cap on the number of events turns a runaway feedback loop into
// a panic rather than a hang.
func (k *Kernel) RunUntil(t Time) {
	const cap = 50_000_000
	for i := 0; len(k.queue) > 0 && k.queue[0].at <= t; i++ {
		if i >= cap {
			panic("sim: event cap exceeded; runaway event loop")
		}
		k.Step()
	}
	if t > k.now {
		k.now = t
	}
}
