package sched

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// The grain heuristic's edge cases, pinned: empty backlogs, backlogs
// narrower than the worker count, the clamp boundaries, and degenerate
// worker counts.
func TestGrainSize(t *testing.T) {
	tests := []struct {
		name       string
		n, workers int
		want       int
	}{
		{"empty round", 0, 4, MinGrain},
		{"single item", 1, 4, MinGrain},
		{"fewer items than workers", 3, 8, MinGrain},
		{"below one grain per worker slot", 31, 4, MinGrain},
		{"exactly workers*GrainsPerWorker", 32, 4, MinGrain},
		{"first grain above 1", 64, 4, 2},
		{"mid-range", 1000, 4, 31},
		{"clamp boundary exact", 4 * GrainsPerWorker * MaxGrain, 4, MaxGrain},
		{"clamped to MaxGrain", 1 << 20, 4, MaxGrain},
		{"single worker", 1000, 1, 125},
		{"zero workers treated as one", 16, 0, 2},
		{"negative workers treated as one", 16, -3, 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := GrainSize(tt.n, tt.workers); got != tt.want {
				t.Errorf("GrainSize(%d, %d) = %d, want %d", tt.n, tt.workers, got, tt.want)
			}
		})
	}
}

// Run calls f exactly once per index, whether the calls outnumber the
// workers or not.
func TestRunCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 4, 7} {
		pool := NewPool(workers)
		for _, n := range []int{0, 1, 2, 5, 31, 256, 1000} {
			hits := make([]atomic.Int32, n)
			pool.Run(n, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if c := hits[i].Load(); c != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, c)
				}
			}
		}
		pool.Close()
	}
}

// A nil pool is the inline-serial runtime: every index runs, in order,
// on the caller's goroutine.
func TestNilPoolRunsInline(t *testing.T) {
	var p *Pool
	if p.Workers() != 1 {
		t.Errorf("nil pool Workers() = %d, want 1", p.Workers())
	}
	var order []int
	p.Run(5, func(i int) { order = append(order, i) })
	if len(order) != 5 {
		t.Fatalf("nil pool ran %d of 5 indexes", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("inline order %v not sequential", order)
		}
	}
	p.Close() // must not panic
}

// ForWorkers maps CLI worker counts: sequential requests get no pool,
// negative requests a GOMAXPROCS-wide one.
func TestForWorkers(t *testing.T) {
	if p := ForWorkers(0); p != nil {
		t.Error("ForWorkers(0) should be nil")
	}
	if p := ForWorkers(1); p != nil {
		t.Error("ForWorkers(1) should be nil")
	}
	p := ForWorkers(3)
	if p.Workers() != 3 {
		t.Errorf("ForWorkers(3).Workers() = %d", p.Workers())
	}
	p.Close()
	p = ForWorkers(-1)
	if p.Workers() != runtime.GOMAXPROCS(0) {
		t.Errorf("ForWorkers(-1).Workers() = %d, want GOMAXPROCS", p.Workers())
	}
	p.Close()
}

// The pool must be reusable across many Runs without respawning
// workers, and Close must reap every goroutine it started.
func TestPoolReuseAndNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	pool := NewPool(4)
	var total atomic.Int64
	for round := 0; round < 50; round++ {
		n := 1 + round*13%97
		pool.Run(n, func(i int) { total.Add(1) })
	}
	pool.Close()
	want := int64(0)
	for round := 0; round < 50; round++ {
		want += int64(1 + round*13%97)
	}
	if total.Load() != want {
		t.Errorf("rounds ran %d items, want %d", total.Load(), want)
	}
	waitForGoroutines(t, before)
}

// waitForGoroutines retries the NumGoroutine comparison briefly: worker
// exit is ordered before Close returns (wg.Wait), but unrelated runtime
// goroutines can blip the global count.
func waitForGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= want {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutines: %d still running, want <= %d", runtime.NumGoroutine(), want)
			return
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}
