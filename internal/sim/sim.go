// Package sim provides a deterministic discrete-event simulation kernel:
// a virtual clock and an event queue with stable FIFO ordering among
// same-time events. The data-plane emulator (internal/emu), the switch
// agents and the clock-sync model all run on this kernel, which is what
// makes the Mininet-substitute experiments reproducible run to run.
package sim

import "fmt"

// Time is virtual time in emulator ticks (the emulator interprets one tick
// as one millisecond).
type Time int64

// Kernel is a discrete-event scheduler. The zero value is not usable; call
// NewKernel.
type Kernel struct {
	now Time
	seq uint64
	// queue is a binary min-heap of events ordered by (at, seq), held by
	// value.
	queue []event
}

type event struct {
	at  Time
	seq uint64
	fn  func()
}

func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
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
	q := append(k.queue, event{at: t, seq: k.seq, fn: fn})
	// Sift the new event up.
	i := len(q) - 1
	ev := q[i]
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
	k.queue = q
}

// Step executes the next event; it reports false when the queue is empty.
func (k *Kernel) Step() bool {
	if len(k.queue) == 0 {
		return false
	}
	q := k.queue
	top := q[0]
	last := len(q) - 1
	ev := q[last]
	q[last] = event{} // release the closure
	q = q[:last]
	// Sift the last event down from the root.
	i := 0
	for {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && q[c+1].before(&q[c]) {
			c++
		}
		if !q[c].before(&ev) {
			break
		}
		q[i] = q[c]
		i = c
	}
	if last > 0 {
		q[i] = ev
	}
	k.queue = q
	k.now = top.at
	top.fn()
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
