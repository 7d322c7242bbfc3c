package explore

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"psa/internal/sched"
	"psa/internal/workloads"
)

// A shared sched.Pool must survive consecutive explorations — the
// worker goroutines are spawned once, reused by every call, and only
// released by the owner's Close.
func TestSharedPoolReuseAcrossExplores(t *testing.T) {
	before := runtime.NumGoroutine()
	pool := sched.NewPool(4)
	seq := Explore(workloads.Philosophers(3), Options{Reduction: Full})
	for run := 0; run < 3; run++ {
		par := Explore(workloads.Philosophers(3), Options{Reduction: Full, Workers: 4, Pool: pool})
		if par.States != seq.States || par.Edges != seq.Edges {
			t.Fatalf("run %d on shared pool: %d/%d != inline %d/%d",
				run, par.States, par.Edges, seq.States, seq.Edges)
		}
		if !reflect.DeepEqual(par.TerminalStoreSet(), seq.TerminalStoreSet()) {
			t.Fatalf("run %d on shared pool: terminal sets differ", run)
		}
	}
	pool.Close()
	waitForGoroutineBaseline(t, before)
}

// A MaxConfigs cut lands mid-merge, after the round's fan-out already
// completed — the pool must come back idle and immediately usable, and
// exploration must not leak the workers of the cut run.
func TestPoolCleanShutdownOnTruncation(t *testing.T) {
	before := runtime.NumGoroutine()
	pool := sched.NewPool(4)
	res := Explore(workloads.Philosophers(4), Options{Reduction: Full, MaxConfigs: 200, Workers: 4, Pool: pool})
	if !res.Truncated {
		t.Fatal("expected truncation")
	}
	// The same pool must still run a full exploration afterwards.
	seq := Explore(workloads.Fig2(), Options{Reduction: Full})
	par := Explore(workloads.Fig2(), Options{Reduction: Full, Workers: 4, Pool: pool})
	if par.States != seq.States {
		t.Fatalf("post-truncation reuse: %d states != inline %d", par.States, seq.States)
	}
	pool.Close()
	waitForGoroutineBaseline(t, before)
}

// Without Options.Pool, each parallel exploration runs a private pool
// and must tear it down on exit — including on the truncation path.
func TestPrivatePoolNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	Explore(workloads.Philosophers(3), Options{Reduction: Full, Workers: 4})
	Explore(workloads.Philosophers(4), Options{Reduction: Full, MaxConfigs: 200, Workers: 4})
	waitForGoroutineBaseline(t, before)
}

// waitForGoroutineBaseline retries briefly: Pool.Close waits for its
// workers' WaitGroup, but the runtime may count an exiting goroutine
// for a few more scheduler ticks.
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
