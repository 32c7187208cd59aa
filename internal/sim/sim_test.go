package sim

import (
	"testing"
	"testing/quick"
)

// drain runs k until its queue is empty.
func drain(k *Kernel) {
	for k.Step() {
	}
}

func TestOrdering(t *testing.T) {
	k := NewKernel()
	var got []int
	k.At(5, func() { got = append(got, 2) })
	k.At(3, func() { got = append(got, 1) })
	k.At(9, func() { got = append(got, 3) })
	drain(k)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v", got)
	}
	if k.Now() != 9 {
		t.Fatalf("now = %d, want 9", k.Now())
	}
}

func TestFIFOWithinSameTime(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(7, func() { got = append(got, i) })
	}
	drain(k)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events reordered: %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	k := NewKernel()
	var fired []Time
	k.At(2, func() {
		fired = append(fired, k.Now())
		k.At(k.Now()+3, func() { fired = append(fired, k.Now()) })
	})
	drain(k)
	if len(fired) != 2 || fired[0] != 2 || fired[1] != 5 {
		t.Fatalf("fired = %v", fired)
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	k := NewKernel()
	k.At(5, func() {})
	drain(k)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for past scheduling")
		}
	}()
	k.At(1, func() {})
}

func TestRunUntil(t *testing.T) {
	k := NewKernel()
	var fired []Time
	for _, at := range []Time{1, 4, 8} {
		at := at
		k.At(at, func() { fired = append(fired, at) })
	}
	k.RunUntil(5)
	if len(fired) != 2 {
		t.Fatalf("fired = %v, want events at 1 and 4", fired)
	}
	if k.Now() != 5 {
		t.Fatalf("now = %d, want 5", k.Now())
	}
	k.RunUntil(7)
	if len(fired) != 2 || k.Now() != 7 {
		t.Fatalf("fired = %v now = %d, want the event at 8 still queued", fired, k.Now())
	}
	drain(k)
	if len(fired) != 3 || k.Now() != 8 {
		t.Fatalf("fired = %v now = %d", fired, k.Now())
	}
}

// TestClockMonotonic: under random event insertion, execution times are
// non-decreasing.
func TestClockMonotonic(t *testing.T) {
	f := func(delays []uint8) bool {
		k := NewKernel()
		var times []Time
		for _, d := range delays {
			d := Time(d)
			k.At(d, func() {
				times = append(times, k.Now())
				if d%3 == 0 {
					k.At(k.Now()+Time(d%5), func() { times = append(times, k.Now()) })
				}
			})
		}
		drain(k)
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestOrderIsTimeThenSeq: under random insertion, nested scheduling
// included, events run in ascending (time, scheduling order) — the order
// the kernel promises, not only a non-decreasing clock.
func TestOrderIsTimeThenSeq(t *testing.T) {
	f := func(delays []uint8) bool {
		k := NewKernel()
		type stamp struct {
			at Time
			id int
		}
		var ran []stamp
		next := 0
		var schedule func(at Time, nest bool)
		schedule = func(at Time, nest bool) {
			id := next
			next++
			k.At(at, func() {
				ran = append(ran, stamp{k.Now(), id})
				if nest {
					schedule(k.Now()+Time(id%4), false)
				}
			})
		}
		for i, d := range delays {
			schedule(Time(d%16), i%3 == 0)
		}
		drain(k)
		if len(ran) != next {
			return false
		}
		for i := 1; i < len(ran); i++ {
			a, b := ran[i-1], ran[i]
			if b.at < a.at || (b.at == a.at && b.id < a.id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
