package sched

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func waitForGoroutineBaseline(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= want {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutine leak: %d running, baseline %d", runtime.NumGoroutine(), want)
			return
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// A context cancelled before the round starts stops DoContext before any
// merge: the engines rely on "no merge after cancellation" to keep
// partial results coherent.
func TestDoContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		pool := NewPool(workers)
		r := NewRounds[int](pool, Hooks{})
		merges := 0
		ok := r.DoContext(ctx, 64,
			func(i int, s *int) { *s = i },
			func(i int, s *int) bool { merges++; return true })
		pool.Close()
		if ok {
			t.Errorf("workers=%d: DoContext returned true under a cancelled context", workers)
		}
		if merges != 0 {
			t.Errorf("workers=%d: %d merges ran under a pre-cancelled context", workers, merges)
		}
	}
}

// Cancelling from inside a merge stops the round before the next merge,
// exactly like a false-returning merge (the truncation cut).
func TestDoContextCancelMidMerge(t *testing.T) {
	for _, workers := range []int{1, 4} {
		pool := NewPool(workers)
		r := NewRounds[int](pool, Hooks{})
		ctx, cancel := context.WithCancel(context.Background())
		merges := 0
		ok := r.DoContext(ctx, 64,
			func(i int, s *int) { *s = i },
			func(i int, s *int) bool {
				merges++
				if merges == 10 {
					cancel()
				}
				return true
			})
		pool.Close()
		cancel()
		if ok {
			t.Errorf("workers=%d: DoContext returned true after mid-merge cancel", workers)
		}
		if merges != 10 {
			t.Errorf("workers=%d: merges=%d, want exactly 10 (stop before the next merge)", workers, merges)
		}
	}
}

// The dep-driven executor honors a pre-cancelled context the same way.
func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		before := runtime.NumGoroutine()
		pool := NewPool(workers)
		d := NewDepRounds[int, int](pool, DepHooks{})
		merges := 0
		ok := d.RunContext(ctx, []int{1, 2, 3, 4},
			func(i int, p *int, s *int) { *s = *p },
			noOwn,
			func(i int, p *int, s *int, emit func(int)) bool { merges++; return true })
		pool.Close()
		if ok {
			t.Errorf("workers=%d: RunContext returned true under a cancelled context", workers)
		}
		if merges != 0 {
			t.Errorf("workers=%d: %d merges ran under a pre-cancelled context", workers, merges)
		}
		waitForGoroutineBaseline(t, before)
	}
}

// Cancelling mid-run stops the dep merge chain before its next task and
// drains every in-flight expansion before RunContext returns.
func TestRunContextCancelMidMerge(t *testing.T) {
	for _, workers := range []int{1, 4} {
		before := runtime.NumGoroutine()
		pool := NewPool(workers)
		d := NewDepRounds[int, int](pool, DepHooks{})
		ctx, cancel := context.WithCancel(context.Background())
		seeds := make([]int, 64)
		merges := 0
		ok := d.RunContext(ctx, seeds,
			func(i int, p *int, s *int) { *s = i },
			noOwn,
			func(i int, p *int, s *int, emit func(int)) bool {
				merges++
				if merges == 10 {
					cancel()
				}
				return true
			})
		pool.Close()
		cancel()
		if ok {
			t.Errorf("workers=%d: RunContext returned true after mid-merge cancel", workers)
		}
		if merges != 10 {
			t.Errorf("workers=%d: merges=%d, want exactly 10", workers, merges)
		}
		waitForGoroutineBaseline(t, before)
	}
}

// Cancellation must reach a merger that is asleep waiting for the head
// task — the watcher's headRdy broadcast — even when every expansion is
// stalled. The gate holds all expansions; cancel fires while the run is
// stuck, then the gate opens and RunContext must come back false with
// zero merges (the merger re-checks the context before merging anything).
func TestRunContextCancelWakesBlockedMerger(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		before := runtime.NumGoroutine()
		pool := NewPool(2)
		d := NewDepRounds[int, int](pool, DepHooks{})
		ctx, cancel := context.WithCancel(context.Background())
		gate := make(chan struct{})
		var started atomic.Int32
		res := make(chan bool, 1)
		merges := 0
		go func() {
			res <- d.RunContext(ctx, make([]int, 8),
				func(i int, p *int, s *int) { started.Add(1); <-gate },
				noOwn,
				func(i int, p *int, s *int, emit func(int)) bool { merges++; return true })
		}()
		// Wait until at least one expansion is in flight (merger or
		// worker — both block on the gate), then cancel and release.
		for started.Load() == 0 {
			runtime.Gosched()
		}
		cancel()
		close(gate)
		select {
		case ok := <-res:
			if ok {
				t.Fatal("RunContext returned true after cancellation")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("RunContext did not return after cancel + gate release (lost wakeup)")
		}
		if merges != 0 {
			t.Fatalf("iter %d: %d merges ran after cancellation before the gate opened", iter, merges)
		}
		pool.Close()
		waitForGoroutineBaseline(t, before)
	}
}

// Close must be idempotent: the second call waits for worker exit
// instead of panicking on a double channel close.
func TestPoolDoubleClose(t *testing.T) {
	before := runtime.NumGoroutine()
	pool := NewPool(4)
	pool.Close()
	pool.Close()
	waitForGoroutineBaseline(t, before)

	// Concurrent double close: both calls must return, one of them
	// having done the shutdown.
	before = runtime.NumGoroutine()
	pool = NewPool(4)
	var wg sync.WaitGroup
	for k := 0; k < 4; k++ {
		wg.Add(1)
		go func() { defer wg.Done(); pool.Close() }()
	}
	wg.Wait()
	waitForGoroutineBaseline(t, before)
}

// Close racing an in-flight DepRounds.Run: Close must wait for the run
// to drain (never closing the task channel under an active Run), the
// run must complete with the full, correct merge stream, and no worker
// may leak.
func TestPoolCloseRacingDepRun(t *testing.T) {
	for iter := 0; iter < 25; iter++ {
		before := runtime.NumGoroutine()
		pool := NewPool(4)
		d := NewDepRounds[int, int](pool, DepHooks{})
		seeds := make([]int, 64)
		for i := range seeds {
			seeds[i] = i
		}
		done := make(chan int, 1)
		go func() {
			sum := 0
			d.Run(seeds,
				func(i int, p *int, s *int) { *s = *p * 2 },
				noOwn,
				func(i int, p *int, s *int, emit func(int)) bool { sum += *s; return true })
			done <- sum
		}()
		runtime.Gosched()
		pool.Close()
		select {
		case sum := <-done:
			if sum != 63*64 {
				t.Fatalf("iter %d: run racing Close merged sum=%d, want %d", iter, sum, 63*64)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("iter %d: DepRounds.Run deadlocked against Pool.Close", iter)
		}
		waitForGoroutineBaseline(t, before)
	}
}

// Runs issued after Close degrade to inline serial execution instead of
// panicking on a closed channel — both executors.
func TestRunAfterCloseInline(t *testing.T) {
	pool := NewPool(4)
	pool.Close()

	r := NewRounds[int](pool, Hooks{})
	sum := 0
	if !r.Do(16, func(i int, s *int) { *s = i }, func(i int, s *int) bool { sum += *s; return true }) {
		t.Fatal("Rounds.Do on a closed pool returned false")
	}
	if sum != 120 {
		t.Fatalf("Rounds.Do on a closed pool: sum=%d, want 120", sum)
	}

	d := NewDepRounds[int, int](pool, DepHooks{})
	sum = 0
	ok := d.Run([]int{0, 1, 2, 3},
		func(i int, p *int, s *int) { *s = *p + 1 },
		noOwn,
		func(i int, p *int, s *int, emit func(int)) bool { sum += *s; return true })
	if !ok || sum != 10 {
		t.Fatalf("DepRounds.Run on a closed pool: ok=%v sum=%d, want true/10", ok, sum)
	}
}

// Many goroutines hammering Rounds on one pool while it closes: every
// round still produces the full merge stream (degrading to inline once
// the pool is gone), and the workers exit cleanly.
func TestPoolCloseRacingRounds(t *testing.T) {
	before := runtime.NumGoroutine()
	pool := NewPool(4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				r := NewRounds[int](pool, Hooks{})
				sum := 0
				r.Do(16, func(i int, s *int) { *s = i }, func(i int, s *int) bool { sum += *s; return true })
				if sum != 120 {
					t.Errorf("round racing Close: sum=%d, want 120", sum)
				}
			}
		}()
	}
	runtime.Gosched()
	pool.Close()
	wg.Wait()
	waitForGoroutineBaseline(t, before)
}
