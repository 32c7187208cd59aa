package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrderedResults(t *testing.T) {
	for _, procs := range []int{1, 2, 7, 0} {
		out, err := Map(context.Background(), procs, 100, func(_ context.Context, i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("procs=%d: out[%d] = %d, want %d", procs, i, v, i*i)
			}
		}
	}
}

func TestMapDeterministicAcrossProcs(t *testing.T) {
	// Tasks that are pure functions of their index must yield identical
	// result slices at every worker count — the harness's core guarantee.
	run := func(procs int) []string {
		out, err := Map(context.Background(), procs, 64, func(_ context.Context, i int) (string, error) {
			return fmt.Sprintf("task-%03d", i*31%64), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := run(1)
	for _, procs := range []int{2, 4, 16} {
		got := run(procs)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("procs=%d diverged at %d: %q != %q", procs, i, got[i], want[i])
			}
		}
	}
}

func TestMapBoundedWorkers(t *testing.T) {
	const procs = 3
	var active, peak atomic.Int64
	_, err := Map(context.Background(), procs, 50, func(_ context.Context, i int) (int, error) {
		n := active.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		active.Add(-1)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > procs {
		t.Fatalf("peak concurrency %d exceeds procs %d", p, procs)
	}
}

func TestMapFirstErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	for _, procs := range []int{1, 4} {
		_, err := Map(context.Background(), procs, 40, func(_ context.Context, i int) (int, error) {
			if i == 17 {
				return 0, fmt.Errorf("task %d: %w", i, boom)
			}
			return i, nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("procs=%d: err = %v, want %v", procs, err, boom)
		}
	}
}

func TestMapStopsClaimingAfterError(t *testing.T) {
	var started atomic.Int64
	boom := errors.New("boom")
	_, err := Map(context.Background(), 2, 10_000, func(_ context.Context, i int) (int, error) {
		started.Add(1)
		if i == 0 {
			return 0, boom
		}
		time.Sleep(100 * time.Microsecond)
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if n := started.Load(); n > 5_000 {
		t.Fatalf("%d tasks started after an immediate failure", n)
	}
}

func TestMapContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	done := make(chan struct{})
	go func() {
		<-done
		cancel()
	}()
	_, err := Map(ctx, 2, 10_000, func(ctx context.Context, i int) (int, error) {
		if started.Add(1) == 1 {
			close(done)
			<-ctx.Done()
		}
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestMapPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var started atomic.Int64
	_, err := Map(ctx, 1, 5, func(_ context.Context, i int) (int, error) {
		started.Add(1)
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if started.Load() != 0 {
		t.Fatalf("%d tasks ran under a cancelled context", started.Load())
	}
}

func TestMapZeroTasks(t *testing.T) {
	out, err := Map(context.Background(), 4, 0, func(_ context.Context, i int) (int, error) {
		t.Fatal("task ran")
		return 0, nil
	})
	if err != nil || len(out) != 0 {
		t.Fatalf("out = %v, err = %v", out, err)
	}
}

func TestProcsDefault(t *testing.T) {
	if got := Procs(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Procs(0) = %d", got)
	}
	if got := Procs(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Procs(-3) = %d", got)
	}
	if got := Procs(5); got != 5 {
		t.Fatalf("Procs(5) = %d", got)
	}
}
