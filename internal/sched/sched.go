// Package sched is the deterministic parallel runtime shared by the
// framework's engines, and owns everything about parallel execution that
// is engine-independent —
//
//   - Pool: a persistent set of worker goroutines reused across runs and
//     across engine invocations, replacing the per-level goroutine spawn
//     both engines used to pay;
//   - DepRounds: the dependency-driven executor both engines run on — the
//     concrete explorer (internal/explore) and the abstract fixpoint
//     (internal/abssem). Tasks are numbered in sequential discovery
//     order, each merged as soon as its own expansion and its
//     predecessor's merge are done, with no level barrier;
//   - the claim-batch heuristic (DepGrainSize, built on GrainSize) that
//     sizes how many published tasks a worker takes at once.
//
// The determinism contract (see DESIGN.md "Deterministic parallel
// runtime"): workers may only write the slot of the task they claimed,
// and the merge callback, which runs on one goroutine in task order, is
// the only code that touches shared engine state. Under that discipline
// nothing observable depends on worker count or claim order; the only
// scheduling-visible outputs are the DepHooks samples, which callers
// must route to perf-only metrics (metrics.Counter.PerfOnly) so
// determinism comparisons never see them.
package sched

import (
	"runtime"
	"sync"
)

// The grain heuristic: a backlog of n items is cut into grains of
// n/(workers*GrainsPerWorker) items, clamped to [MinGrain, MaxGrain].
//
//   - GrainsPerWorker targets 8 grains per worker, enough that one
//     worker's batch never holds most of the ready work while the others
//     idle, and still few enough that the claim (one lock round-trip) is
//     amortized over many items.
//   - MinGrain is 1: a backlog narrower than the worker count still makes
//     progress on every item, one item per grain.
//   - MaxGrain caps a grain at 256 items; beyond a few thousand items per
//     worker, larger grains buy no throughput but hold tasks back from
//     idle workers.
const (
	GrainsPerWorker = 8
	MinGrain        = 1
	MaxGrain        = 256
)

// GrainSize returns the number of consecutive items per scheduling grain
// for a backlog of n items on the given worker count: n/(workers*
// GrainsPerWorker), clamped to [MinGrain, MaxGrain]. Degenerate inputs
// (n <= 0, workers <= 0) return MinGrain.
func GrainSize(n, workers int) int {
	if workers < 1 {
		workers = 1
	}
	g := n / (workers * GrainsPerWorker)
	if g < MinGrain {
		return MinGrain
	}
	if g > MaxGrain {
		return MaxGrain
	}
	return g
}

// Pool is a persistent set of worker goroutines. Workers are spawned once
// and reused for every Run until Close, so engines and CLIs that run
// several engines in sequence pay goroutine startup once, not per run.
//
// A nil *Pool is valid and degrades to inline serial execution; Close is
// a no-op on it. Run may be called from multiple goroutines (their calls
// then share the same workers), but must not be called from inside a Run
// callback — the workers and the blocked outer caller would starve the
// inner call.
//
// Close is safe against both hazards a long-running service exposes: a
// second Close (idempotent — both calls return only after every worker
// has exited) and a Close racing an in-flight Run. Close waits for
// active Runs to finish before the job channel goes away, and a Run that
// starts after Close has begun degrades to inline serial execution
// instead of panicking on a dead channel, so neither side can deadlock
// or leak workers.
type Pool struct {
	workers int
	jobs    chan job
	wg      sync.WaitGroup

	// Close/Run lifecycle: closed flips exactly once under mu; active
	// counts in-flight Run calls that hold the right to send on jobs.
	mu     sync.Mutex
	closed bool
	active sync.WaitGroup
}

// job is one call f(i) of a Run, with the latch its caller waits on.
type job struct {
	f    func(int)
	i    int
	done *sync.WaitGroup
}

// NewPool starts a pool of the given number of worker goroutines; counts
// <= 0 request GOMAXPROCS. The caller owns the pool and must Close it to
// release the workers.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers, jobs: make(chan job, workers)}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// ForWorkers maps a CLI-style worker-count request to a pool: nil for 0
// or 1 (the engines then run their executor inline on the caller's
// goroutine, ignoring any pool), GOMAXPROCS workers for a negative
// count, n workers otherwise. The caller must Close the result (safe on
// nil).
func ForWorkers(n int) *Pool {
	if n == 0 || n == 1 {
		return nil
	}
	return NewPool(n)
}

// Workers reports the pool's worker count (1 for the nil pool).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// Close shuts the workers down and waits for them to exit, so a
// NumGoroutine measurement taken after Close sees none of the pool's
// goroutines. Close is a no-op on a nil pool and idempotent on a real
// one; a Close racing an in-flight Run waits for that Run to finish
// first, and a Run issued after Close runs inline on the caller's
// goroutine.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.mu.Lock()
	already := p.closed
	p.closed = true
	p.mu.Unlock()
	if already {
		// Someone else is (or was) shutting down; just wait for the
		// workers to be gone so every Close call has the same
		// post-condition.
		p.wg.Wait()
		return
	}
	// Drain in-flight Runs before retiring the channel: their sends must
	// land on live workers.
	p.active.Wait()
	close(p.jobs)
	p.wg.Wait()
}

// acquire registers an in-flight Run; it reports false when the pool is
// (being) closed, in which case the caller must execute inline instead
// of touching the job channel.
func (p *Pool) acquire() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.active.Add(1)
	return true
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for j := range p.jobs {
		j.f(j.i)
		j.done.Done()
	}
}

// Run calls f(i) once for every i in [0, n) on the pool's workers and
// blocks until every call has returned. Calls run concurrently as
// workers free up; on a nil pool, or one Close has begun shutting down,
// they run inline on the caller's goroutine in index order. DepRounds
// uses it to start one worker loop per pool worker.
func (p *Pool) Run(n int, f func(i int)) {
	if n <= 0 {
		return
	}
	if p == nil || !p.acquire() {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	defer p.active.Done()
	var done sync.WaitGroup
	done.Add(n)
	for i := 0; i < n; i++ {
		p.jobs <- job{f, i, &done}
	}
	done.Wait()
}
