package sched

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// depSim is a deterministic synthetic task graph: task p expands to
// f(p), and merging task p emits its children per a fixed fan-out rule
// until a size budget runs out. The merged stream must equal the
// sequential simulation exactly at every worker count — the executor's
// core contract.
func depSimExpand(p uint64) uint64 {
	h := p*0x9e3779b97f4a7c15 + 1
	for k := 0; k < 64; k++ {
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
	}
	return h
}

func depSimChildren(p uint64) []uint64 {
	if p%3 == 0 {
		return []uint64{p*2 + 1, p*2 + 2}
	}
	return []uint64{p*2 + 1}
}

// depSimSequential replays the graph serially: the reference stream.
func depSimSequential(seeds []uint64, budget int) (payloads, slots []uint64) {
	queue := append([]uint64(nil), seeds...)
	for head := 0; head < len(queue) && len(payloads) < budget; head++ {
		p := queue[head]
		payloads = append(payloads, p)
		slots = append(slots, depSimExpand(p))
		queue = append(queue, depSimChildren(p)...)
	}
	return
}

func TestDepRoundsMatchesSequentialReplay(t *testing.T) {
	seeds := []uint64{3, 10, 40}
	const budget = 3000
	wantP, wantS := depSimSequential(seeds, budget)
	for _, workers := range []int{0, 1, 2, 4, 8} {
		pool := ForWorkers(workers)
		dep := NewDepRounds[uint64, uint64](pool, DepHooks{})
		var gotP, gotS []uint64
		ok := dep.Run(seeds,
			func(i int, p *uint64, slot *uint64) { *slot = depSimExpand(*p) },
			nil,
			func(i int, p *uint64, slot *uint64, emit func(uint64)) bool {
				if i != len(gotP) {
					t.Fatalf("workers=%d: merge index %d out of order (merged %d)", workers, i, len(gotP))
				}
				gotP = append(gotP, *p)
				gotS = append(gotS, *slot)
				if len(gotP) >= budget {
					return false
				}
				for _, c := range depSimChildren(*p) {
					emit(c)
				}
				return true
			})
		pool.Close()
		if ok {
			t.Errorf("workers=%d: Run returned true despite early stop", workers)
		}
		if len(gotP) != budget {
			t.Fatalf("workers=%d: merged %d tasks, want %d", workers, len(gotP), budget)
		}
		for i := range wantP {
			if gotP[i] != wantP[i] || gotS[i] != wantS[i] {
				t.Fatalf("workers=%d: task %d = (%d,%#x), want (%d,%#x)",
					workers, i, gotP[i], gotS[i], wantP[i], wantS[i])
			}
		}
	}
}

// The own stage must run exactly once per task, in strict task order,
// after the task's expansion and before its merge — even with skewed
// expansion latencies racing the chain.
func TestDepRoundsOwnChainOrdered(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		pool := ForWorkers(workers)
		dep := NewDepRounds[int, int](pool, DepHooks{})
		rng := rand.New(rand.NewSource(1))
		delays := make([]time.Duration, 500)
		for i := range delays {
			delays[i] = time.Duration(rng.Intn(50)) * time.Microsecond
		}
		var ownSeen int32
		merged := 0
		seeds := []int{0}
		ok := dep.Run(seeds,
			func(i int, p *int, slot *int) {
				if i < len(delays) {
					time.Sleep(delays[i])
				}
				*slot = *p * 10
			},
			func(i int, p *int, slot *int) {
				if got := atomic.AddInt32(&ownSeen, 1); int(got) != i+1 {
					t.Errorf("workers=%d: own ran task %d as call %d", workers, i, got)
				}
				if *slot != *p*10 {
					t.Errorf("workers=%d: own saw unexpanded slot for task %d", workers, i)
				}
				*slot++ // merge must observe the own stage's write
			},
			func(i int, p *int, slot *int, emit func(int)) bool {
				if int(atomic.LoadInt32(&ownSeen)) < i+1 {
					t.Errorf("workers=%d: merge of %d before its own stage", workers, i)
				}
				if *slot != *p*10+1 {
					t.Errorf("workers=%d: merge of %d missed own effect: slot %d", workers, i, *slot)
				}
				merged++
				if merged < 500 {
					emit(merged)
				}
				return true
			})
		pool.Close()
		if !ok || merged != 500 {
			t.Fatalf("workers=%d: ok=%v merged=%d", workers, ok, merged)
		}
	}
}

// Early stop mid-chain: in-flight expansions must drain before Run
// returns (no callback may touch engine state afterwards) and no pool
// goroutine may leak after Close.
func TestDepRoundsEarlyStopDrains(t *testing.T) {
	base := runtime.NumGoroutine()
	var inflight, postReturn atomic.Int32
	pool := NewPool(4)
	dep := NewDepRounds[int, int](pool, DepHooks{})
	seeds := make([]int, 256)
	for i := range seeds {
		seeds[i] = i
	}
	merges := 0
	dep.Run(seeds,
		func(i int, p *int, slot *int) {
			inflight.Add(1)
			time.Sleep(100 * time.Microsecond)
			*slot = *p
			inflight.Add(-1)
			postReturn.Add(1)
		},
		nil,
		func(i int, p *int, slot *int, emit func(int)) bool {
			merges++
			return merges < 10
		})
	if got := inflight.Load(); got != 0 {
		t.Errorf("%d expansions still in flight after Run returned", got)
	}
	after := postReturn.Load()
	time.Sleep(5 * time.Millisecond)
	if late := postReturn.Load(); late != after {
		t.Errorf("expansions completed after Run returned (%d -> %d)", after, late)
	}
	if merges != 10 {
		t.Errorf("merged %d tasks, want exactly 10", merges)
	}
	pool.Close()
	waitForGoroutines(t, base)
}

// Two concurrent dependency-driven runs on one shared pool must both
// complete: a run's merger helps itself inline, so a pool fully occupied
// by the first run can never deadlock the second.
func TestDepRoundsSharedPoolConcurrentRuns(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	run := func(done chan<- int) {
		dep := NewDepRounds[int, int](pool, DepHooks{})
		merged := 0
		dep.Run([]int{1},
			func(i int, p *int, slot *int) { *slot = *p },
			nil,
			func(i int, p *int, slot *int, emit func(int)) bool {
				merged++
				if merged < 2000 {
					emit(merged)
				}
				return true
			})
		done <- merged
	}
	a, b := make(chan int, 1), make(chan int, 1)
	go run(a)
	go run(b)
	for _, ch := range []chan int{a, b} {
		select {
		case n := <-ch:
			if n != 2000 {
				t.Errorf("run merged %d, want 2000", n)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("concurrent dependency-driven runs deadlocked on a shared pool")
		}
	}
}

func TestDepRoundsEmptySeeds(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	dep := NewDepRounds[int, int](pool, DepHooks{})
	called := false
	ok := dep.Run(nil,
		func(i int, p *int, slot *int) { called = true },
		nil,
		func(i int, p *int, slot *int, emit func(int)) bool { called = true; return true })
	if !ok || called {
		t.Fatalf("empty run: ok=%v called=%v", ok, called)
	}
}

// The hooks must fire: Ready with positive backlogs, MergeWait only when
// the merger actually stalls (can be zero, so only Ready is asserted).
func TestDepRoundsHooks(t *testing.T) {
	var readyCalls, readyMax atomic.Int64
	pool := NewPool(2)
	defer pool.Close()
	dep := NewDepRounds[int, int](pool, DepHooks{
		Ready: func(n int) {
			readyCalls.Add(1)
			for {
				old := readyMax.Load()
				if int64(n) <= old || readyMax.CompareAndSwap(old, int64(n)) {
					break
				}
			}
		},
		MergeWait: func() {},
	})
	seeds := make([]int, 300)
	dep.Run(seeds,
		func(i int, p *int, slot *int) {
			time.Sleep(50 * time.Microsecond) // give pool workers a window to claim batches
			*slot = i
		},
		nil,
		func(i int, p *int, slot *int, emit func(int)) bool { return true })
	if readyCalls.Load() == 0 || readyMax.Load() <= 0 {
		t.Errorf("Ready hook not fed: calls=%d max=%d", readyCalls.Load(), readyMax.Load())
	}
}

func TestDepGrainSize(t *testing.T) {
	cases := []struct {
		backlog, workers, want int
	}{
		{0, 4, 1},                    // empty backlog still progresses
		{-3, 4, 1},                   // degenerate
		{1, 4, 1},                    // capped by the backlog itself
		{5, 4, 5},                    // floor wants 8, backlog has 5
		{8, 4, 8},                    // exactly the per-shard floor
		{100, 4, 8},                  // GrainSize says 3; floor lifts to 8
		{256, 1, 32},                 // above the floor: plain heuristic
		{1 << 20, 4, 256},            // MaxGrain cap survives
		{64, 1, 8},                   // GrainSize(64,1)=8 == floor
		{10000, 1000, 8},             // many workers over-fragment; floor holds
		{MinDepGrain, 1, 8},          // identity at the floor
		{MaxGrain * 64, 2, MaxGrain}, // cap
	}
	for _, c := range cases {
		if got := DepGrainSize(c.backlog, c.workers); got != c.want {
			t.Errorf("DepGrainSize(%d, %d) = %d, want %d", c.backlog, c.workers, got, c.want)
		}
	}
	// Invariants over a sweep: 1 <= g <= max(1, backlog), g <= MaxGrain.
	for backlog := -1; backlog < 3000; backlog += 7 {
		for _, w := range []int{-1, 0, 1, 2, 8, 64} {
			g := DepGrainSize(backlog, w)
			if g < 1 || g > MaxGrain || (backlog >= 1 && g > backlog) {
				t.Fatalf("DepGrainSize(%d, %d) = %d violates clamp invariants", backlog, w, g)
			}
		}
	}
}
