package sched

import (
	"runtime"
	"strings"
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

// A merged task must stop costing memory: the store drops each segment
// once the merge head leaves it, so a long chain retains only the
// segments still in flight, not every task it ever published. The heap
// is measured inside the last merge, while the run is still live.
func TestDepRoundsReleasesMergedSegments(t *testing.T) {
	const tasks = 100_000
	type slot [64]int64 // 512 B, so 100k retained slots would be ~51 MB
	for _, workers := range []int{1, 2} {
		pool := ForWorkers(workers)
		dep := NewDepRounds[int, slot](pool, DepHooks{})
		var before, during runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		ok := dep.Run([]int{0},
			func(i int, p *int, s *slot) { s[0] = int64(*p) },
			func(i int, p *int, s *slot, emit func(int)) bool {
				if i+1 < tasks {
					emit(i + 1)
					return true
				}
				runtime.GC()
				runtime.ReadMemStats(&during)
				return true
			})
		pool.Close()
		if !ok {
			t.Fatalf("workers=%d: chain did not complete", workers)
		}
		if growth := int64(during.HeapAlloc) - int64(before.HeapAlloc); growth > 8<<20 {
			t.Errorf("workers=%d: heap grew %d MB over a %d-task chain; merged tasks are retained",
				workers, growth>>20, tasks)
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

// depLocate must lay tasks out contiguously: segment by segment, each
// offset inside its segment's capacity, with no index skipped or shared.
func TestDepLocateContiguous(t *testing.T) {
	seg, off := 0, 0
	for i := 0; i < 5*depSegMax; i++ {
		gs, goff := depLocate(i)
		if gs != seg || goff != off {
			t.Fatalf("depLocate(%d) = (%d,%d), want (%d,%d)", i, gs, goff, seg, off)
		}
		if off++; off == depSegLen(seg) {
			seg, off = seg+1, 0
		}
	}
	if depSegLen(0) >= depSegMax || depSegLen(depSmallSegs) != depSegMax {
		t.Errorf("segment capacities %d..%d, want small first, depSegMax from segment %d on",
			depSegLen(0), depSegLen(depSmallSegs), depSmallSegs)
	}
}

// A one-task run is the abstract engine's common case on small
// programs, so its fixed cost must stay small: the task store starts
// with a small segment instead of a full depSegMax-task one.
func TestDepRoundsOneTaskRunBytes(t *testing.T) {
	type slot [14]int64 // 112 B, the size of an engine slot
	dep := NewDepRounds[*int, slot](nil, DepHooks{})
	seeds := []*int{new(int)}
	run := func() {
		dep.Run(seeds,
			func(i int, p **int, s *slot) { s[0] = int64(**p) },
			func(i int, p **int, s *slot, emit func(*int)) bool { return true })
	}
	run()
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("one-task run: %d B", per)
	if per > 2048 {
		t.Errorf("a one-task run allocates %d B, want <= 2048", per)
	}
}

// A panicking expansion on a pool worker must not kill the process: the
// run stops, RunContext re-panics on its caller with the worker's value
// and stack once every worker has quiesced, and the pool stays usable.
func TestDepRoundsWorkerPanic(t *testing.T) {
	before := runtime.NumGoroutine()
	pool := NewPool(4)
	dep := NewDepRounds[int, int](pool, DepHooks{})
	seeds := make([]int, 64)
	panicking := make(chan struct{})
	got := func() (v any) {
		defer func() { v = recover() }()
		dep.Run(seeds,
			func(i int, p *int, s *int) {
				switch i {
				case 0:
					// Hold the merger's head until a worker has panicked, so
					// the panicking task can only be a worker's.
					<-panicking
				case 40:
					close(panicking)
					panic("boom")
				}
			},
			func(i int, p *int, s *int, emit func(int)) bool { return true })
		return nil
	}()
	wp, ok := got.(*WorkerPanic)
	if !ok {
		t.Fatalf("Run panicked with %#v, want a *WorkerPanic", got)
	}
	if wp.Value != "boom" || !strings.Contains(string(wp.Stack), "TestDepRoundsWorkerPanic") {
		t.Errorf("WorkerPanic = %v with stack\n%s\nwant the worker's value and stack", wp.Value, wp.Stack)
	}

	// A panic in the merger's own callbacks ends the run the same way.
	got = func() (v any) {
		defer func() { v = recover() }()
		dep.Run(seeds,
			func(i int, p *int, s *int) {},
			func(i int, p *int, s *int, emit func(int)) bool {
				if i == 5 {
					panic("merge boom")
				}
				return true
			})
		return nil
	}()
	if got != "merge boom" {
		t.Errorf("Run panicked with %#v, want the merge's own value", got)
	}

	sum := 0
	ok = dep.Run([]int{1, 2, 3},
		func(i int, p *int, s *int) { *s = *p },
		func(i int, p *int, s *int, emit func(int)) bool { sum += *s; return true })
	if !ok || sum != 6 {
		t.Errorf("run after panics: ok=%v sum=%d, want true/6", ok, sum)
	}
	pool.Close()
	waitForGoroutines(t, before)
}

// A run must not wait for pool workers it never got: when another run
// holds every worker, the second run's merger does all of its work
// inline and returns, while its worker loops are still queued behind
// the first run.
func TestDepRoundsDoesNotWaitForBusyPool(t *testing.T) {
	before := runtime.NumGoroutine()
	pool := NewPool(2)
	gate := make(chan struct{})
	var started atomic.Int32
	first := make(chan bool, 1)
	go func() {
		dep := NewDepRounds[int, int](pool, DepHooks{})
		first <- dep.Run(make([]int, 64),
			func(i int, p *int, s *int) { started.Add(1); <-gate },
			func(i int, p *int, s *int, emit func(int)) bool { return true })
	}()
	// Both workers and the first run's merger are held at the gate.
	for started.Load() < 3 {
		runtime.Gosched()
	}
	second := make(chan int, 1)
	go func() {
		dep := NewDepRounds[int, int](pool, DepHooks{})
		sum := 0
		dep.Run([]int{1, 2, 3, 4},
			func(i int, p *int, s *int) { *s = *p },
			func(i int, p *int, s *int, emit func(int)) bool { sum += *s; return true })
		second <- sum
	}()
	select {
	case sum := <-second:
		if sum != 10 {
			t.Errorf("second run merged sum %d, want 10", sum)
		}
	case <-time.After(5 * time.Second):
		t.Error("second run waited for workers held by another run")
	}
	close(gate)
	if ok := <-first; !ok {
		t.Error("first run did not complete")
	}
	pool.Close()
	waitForGoroutines(t, before)
}
