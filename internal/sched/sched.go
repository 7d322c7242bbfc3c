// Package sched is the deterministic parallel runtime shared by the
// framework's engines, and owns everything about parallel execution that
// is engine-independent —
//
//   - Pool: a persistent set of worker goroutines reused across rounds
//     and across engine invocations, replacing the per-level goroutine
//     spawn both engines used to pay;
//   - the grain heuristic (GrainSize) plus the strided-grain, CAS-claim,
//     steal-cursor loop that balances skewed rounds without affecting
//     which slot a result lands in;
//   - Rounds: the fan-out/serial-merge protocol the abstract fixpoint
//     engine (internal/abssem) runs on — expansion results land in
//     position-indexed slots that only a serial, in-order merge reads,
//     so engine output is bit-identical at any worker count;
//   - DepRounds: the dependency-driven pipeline the concrete explorer
//     (internal/explore) runs on — tasks in sequential discovery order,
//     each merged as soon as its own expansion and its predecessor's
//     merge are done, with no level barrier.
//
// The determinism contract (see DESIGN.md "Deterministic parallel
// runtime"): workers may only write the slot of the index they were
// handed, and the merge callback is the only code that touches shared
// engine state. Under that discipline nothing observable depends on
// worker count, grain size, or steal order; the only scheduling-visible
// output is the steal count, which callers must route to perf-only
// metrics (metrics.Counter.PerfOnly) so determinism comparisons never
// see it.
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The grain heuristic: a round of n items is cut into grains of
// n/(workers*GrainsPerWorker) items, clamped to [MinGrain, MaxGrain].
//
//   - GrainsPerWorker targets 8 grains per worker, enough slack that a
//     worker whose home stride holds the round's expensive items sheds
//     most of them to stealers, while keeping the per-grain claim (one
//     CAS) amortized over many items.
//   - MinGrain is 1: a round narrower than the worker count still makes
//     progress on every item, one item per grain.
//   - MaxGrain caps a grain at 256 items so that even enormous rounds
//     keep enough grains in flight for stealing to matter; beyond a few
//     thousand items per worker, finer grains buy no extra balance but
//     cost CAS traffic.
const (
	GrainsPerWorker = 8
	MinGrain        = 1
	MaxGrain        = 256
)

// GrainSize returns the number of consecutive items per scheduling grain
// for a round of n items on the given worker count: n/(workers*
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

// grainCount returns how many grains a round of n items yields at the
// given grain size.
func grainCount(n, grain int) int {
	return (n + grain - 1) / grain
}

// Pool is a persistent set of worker goroutines that executes rounds of
// index-addressed work. Workers are spawned once and reused for every
// Run until Close, so engines that iterate many rounds (deep BFS levels,
// long fixpoint worklists) and CLIs that run several engines in sequence
// pay goroutine startup once, not per level.
//
// A nil *Pool is valid and degrades to inline serial execution; Close is
// a no-op on it. Run may be called from multiple goroutines (rounds are
// then interleaved over the same workers), but must not be called from
// inside a Run callback — the workers and the blocked outer caller would
// starve the inner round.
//
// Close is safe against both hazards a long-running service exposes: a
// second Close (idempotent — both calls return only after every worker
// has exited) and a Close racing an in-flight Run. Close waits for
// active rounds to finish before the task channel goes away, and a Run
// that starts after Close has begun degrades to inline serial execution
// instead of panicking on a dead channel, so neither side can deadlock
// or leak workers.
type Pool struct {
	workers int
	tasks   chan *task
	wg      sync.WaitGroup

	// Close/Run lifecycle: closed flips exactly once under mu; active
	// counts in-flight Run calls that hold the right to send on tasks.
	mu     sync.Mutex
	closed bool
	active sync.WaitGroup
}

// task is one Run's shared round state: the claim array, the steal
// cursor, and the completion latch the caller waits on.
type task struct {
	n, grain, grains, nw int
	f                    func(int)
	claimed              []atomic.Bool
	stride               atomic.Int64 // hands each participant a distinct home stride
	cursor               atomic.Int64 // shared steal cursor over all grains
	steals               atomic.Int64
	done                 sync.WaitGroup
}

// NewPool starts a pool of the given number of worker goroutines; counts
// <= 0 request GOMAXPROCS. The caller owns the pool and must Close it to
// release the workers.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers, tasks: make(chan *task, workers)}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// ForWorkers maps a CLI-style worker-count request to a pool: nil for a
// sequential request (0 or 1 — the engines won't dispatch to their
// parallel paths anyway), GOMAXPROCS workers for a negative count, n
// workers otherwise. The caller must Close the result (safe on nil).
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
// one; a Close racing an in-flight Run waits for that round to finish
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
	// Drain in-flight rounds before retiring the channel: their task
	// sends must land on live workers.
	p.active.Wait()
	close(p.tasks)
	p.wg.Wait()
}

// acquire registers an in-flight Run; it reports false when the pool is
// (being) closed, in which case the caller must execute inline instead
// of touching the task channel.
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
	for t := range p.tasks {
		t.run()
		t.done.Done()
	}
}

// Run executes f(i) exactly once for every i in [0, n), fanning the
// indexes across the pool's workers in strided grains, and returns the
// number of grains claimed outside a worker's home stride (the steal
// count — a perf-only quantity). Run blocks until the whole round is
// done. Rounds too narrow to occupy two workers (and every round on a
// nil pool) execute inline on the caller's goroutine.
//
// Scheduling never affects output placement: f receives the item index,
// and callers write results only to position i, so which worker ran
// which grain is unobservable outside the steal count.
func (p *Pool) Run(n int, f func(i int)) (steals int64) {
	if n <= 0 {
		return 0
	}
	grain := GrainSize(n, p.Workers())
	grains := grainCount(n, grain)
	nw := p.Workers()
	if nw > grains {
		nw = grains
	}
	if p == nil || nw <= 1 || !p.acquire() {
		for i := 0; i < n; i++ {
			f(i)
		}
		return 0
	}
	defer p.active.Done()
	t := &task{n: n, grain: grain, grains: grains, nw: nw, f: f,
		claimed: make([]atomic.Bool, grains)}
	t.done.Add(nw)
	for i := 0; i < nw; i++ {
		p.tasks <- t
	}
	t.done.Wait()
	return t.steals.Load()
}

// run is one worker's share of a round: claim the grains of the home
// stride first (cheap, but CAS-guarded so a stealer and the owner never
// both run one), then pull leftover grains through the shared cursor
// until the round is exhausted.
func (t *task) run() {
	w := int(t.stride.Add(1)) - 1
	for g := w; g < t.grains; g += t.nw {
		if t.claimed[g].CompareAndSwap(false, true) {
			t.runGrain(g)
		}
	}
	for {
		g := int(t.cursor.Add(1)) - 1
		if g >= t.grains {
			return
		}
		if t.claimed[g].CompareAndSwap(false, true) {
			t.steals.Add(1)
			t.runGrain(g)
		}
	}
}

func (t *task) runGrain(g int) {
	lo, hi := g*t.grain, (g+1)*t.grain
	if hi > t.n {
		hi = t.n
	}
	for i := lo; i < hi; i++ {
		t.f(i)
	}
}
