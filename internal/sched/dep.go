package sched

import (
	"context"
	"fmt"
	"math/bits"
	"runtime/debug"
	"sync"
)

// Scheduler names the two parallel protocols the engines once chose
// between. Both engines now run DepRounds and the leveled protocol is
// gone (DESIGN.md §7); the type stays only because benchmark code still
// passes it through pipeline.RunOptions.Sched, which is ignored.
type Scheduler uint8

const (
	// Leveled named the deleted fan-out/serial-merge rounds protocol.
	Leveled Scheduler = iota
	// DepDriven is the dependency-driven pipelined protocol (DepRounds).
	DepDriven
)

// MinDepGrain is the per-shard floor of DepGrainSize. The dependency-
// driven executor consumes the frontier incrementally: each claim sees
// only the published-but-unexpanded backlog — a small, constantly
// refilled shard of the global frontier, not the whole BFS level the
// GrainSize heuristic was tuned for. GrainSize(n, workers) returns
// MinGrain (one item) for any shard under 8·workers items, which costs a
// lock round-trip per task; a floor of 8 keeps the claim amortized over
// the same number of items GrainsPerWorker targets.
const MinDepGrain = 8

// DepGrainSize sizes one claim batch for the dependency-driven executor:
// GrainSize's n/(workers·GrainsPerWorker) heuristic applied to the
// backlog, clamped below by the per-shard minimum MinDepGrain and above
// by both MaxGrain and the backlog itself (a near-empty shard is never
// monopolized by one claim beyond what actually exists). Degenerate
// inputs (backlog <= 0) return 1 so a claim always makes progress.
func DepGrainSize(backlog, workers int) int {
	if backlog <= 0 {
		return 1
	}
	g := GrainSize(backlog, workers)
	if g < MinDepGrain {
		g = MinDepGrain
	}
	if g > backlog {
		g = backlog
	}
	return g
}

// DepHooks are the optional observability callbacks of a DepRounds
// executor. Every field may be nil, and none may influence results: both
// quantities depend on scheduling, so callers must route them to
// perf-only metrics (metrics.Counter.PerfOnly) — never into counters or
// comparisons the determinism contract covers.
type DepHooks struct {
	// Ready receives the published-but-unclaimed backlog observed at each
	// batch claim (a ready-queue depth sample). Called from worker
	// goroutines; implementations must be safe for concurrent use.
	Ready func(n int)
	// MergeWait is called each time the merger must block because the
	// head task's expansion has not finished — the pipeline's analogue
	// of a level barrier stall.
	MergeWait func()
}

// depState is a task's position in the expand → merge pipeline, guarded
// by the run mutex.
type depState uint8

const (
	depPublished depState = iota // visible, unclaimed
	depClaimed                   // an expander owns it
	depExpanded                  // slot filled
)

// The task store is a list of segments, and a segment never moves once
// allocated, so workers can hold *depTask across lock releases. Segment
// 0 holds depSeg0 tasks, each following segment doubles the capacity
// before it until segments reach depSegMax tasks, and from then on every
// segment holds depSegMax: a one-task run allocates one small segment,
// and a long run still allocates a segment only every depSegMax tasks.
const (
	depSeg0Bits   = 3
	depSegMaxBits = 8
	depSegMax     = 1 << depSegMaxBits
	// depSmallSegs is the number of growing segments before the first
	// full one: together they hold the first depSegMax tasks.
	depSmallSegs = depSegMaxBits - depSeg0Bits + 1
)

// depLocate maps task index i to its segment and the offset within it.
func depLocate(i int) (seg, off int) {
	switch {
	case i < 1<<depSeg0Bits:
		return 0, i
	case i < depSegMax:
		// Segment k >= 1 starts at 1<<(k+depSeg0Bits-1) and is as long
		// as everything before it.
		seg = bits.Len(uint(i)) - depSeg0Bits
		return seg, i - 1<<(seg+depSeg0Bits-1)
	default:
		i -= depSegMax
		return depSmallSegs + i>>depSegMaxBits, i & (depSegMax - 1)
	}
}

// depSegLen is the capacity of segment seg.
func depSegLen(seg int) int {
	switch {
	case seg == 0:
		return 1 << depSeg0Bits
	case seg < depSmallSegs:
		return 1 << (seg + depSeg0Bits - 1)
	default:
		return depSegMax
	}
}

type depTask[P, T any] struct {
	p    P
	slot T
	st   depState
}

// DepRounds is the deterministic parallel executor: it runs one
// pipelined task graph whose dependency structure is the weak partial
// order of the serial replay (after Kim, Venet & Thakur, "Deterministic
// Parallel Fixpoint Computation"). Tasks are keyed by sequential
// discovery order — seeds first, then everything emit publishes, in emit
// order — and
//
//   - expansion of task i depends on nothing (any worker, any order,
//     as soon as the task is published);
//   - merge of task i depends on expansion of i and merge of i-1.
//
// There is no level barrier: the caller's goroutine merges task i the
// moment its predecessors in that order are done, while workers are
// still expanding later tasks, and tasks emitted by a merge become
// claimable immediately. The merged stream is exactly the sequential
// visit order, so an engine whose merge callback replays its sequential
// bookkeeping is bit-identical to its sequential form: workers write
// only their own task's slot, and merge is the only code touching shared
// engine state, always from the caller's goroutine. An engine whose
// expansions read state the merge changes must make that safe itself:
// the explorer's claim table is order-independent, and the abstract
// engine publishes each joined state as a fresh configuration and
// re-expands a task whose state grew after its expansion.
//
// The merger never depends on the pool: when the head task is still
// unclaimed it expands it inline, so a Run completes even if every pool
// worker is busy elsewhere (e.g. a shared pool running another engine),
// and on the nil pool every task is expanded right before its merge, on
// the caller's goroutine — the engine's sequential algorithm, with no
// goroutine started. A run keeps the workers it got until it finishes,
// so a concurrent run on a shared pool gets them only then; until then
// its merger works alone, and a run that ends before its workers arrive
// returns without waiting for them.
type DepRounds[P, T any] struct {
	pool   *Pool
	hooks  DepHooks
	window int
}

// NewDepRounds returns a dependency-driven executor over the pool (nil
// for inline serial execution) with the given hooks.
func NewDepRounds[P, T any](pool *Pool, hooks DepHooks) *DepRounds[P, T] {
	return &DepRounds[P, T]{pool: pool, hooks: hooks}
}

// Window bounds how far workers run ahead of the merge: a worker claims
// task i only once every task before i-n is merged. n <= 0 (the
// default) leaves run-ahead unbounded. The window changes when tasks are
// expanded, never what the merge sees. It returns d.
func (d *DepRounds[P, T]) Window(n int) *DepRounds[P, T] {
	d.window = n
	return d
}

// Pool returns the pool the executor schedules on (nil when inline).
func (d *DepRounds[P, T]) Pool() *Pool { return d.pool }

// A WorkerPanic is a panic raised by an expansion on a pool worker.
// RunContext recovers it, stops the run, and once every worker has left
// the run panics with it on its own caller's goroutine, so the caller's
// recover sees the worker's value and stack and the pool stays usable.
type WorkerPanic struct {
	Value any
	Stack []byte // the worker's stack at the panic
}

func (p *WorkerPanic) Error() string {
	return fmt.Sprintf("panic in pool worker: %v\n\n%s", p.Value, p.Stack)
}

// depRun is one Run's shared state. All fields are guarded by mu except
// the cond vars' own queues; task payloads and slots are written outside
// mu but every handoff (publish→claim, expand→merge) goes through a
// state transition under mu, which carries the happens-before edge.
type depRun[P, T any] struct {
	mu       sync.Mutex
	moreWork sync.Cond // workers wait for published tasks or shutdown
	headRdy  sync.Cond // merger waits for the head task to progress
	segs     [][]depTask[P, T]
	total    int          // published tasks
	next     int          // lowest unclaimed index; [0,next) are claimed
	finished bool         // run over: merger done, or a worker panicked
	panicked *WorkerPanic // the first worker panic, if any
	waitFor  int          // index the merger is blocked on; -1 when it is not
	head     int          // tasks merged, as of the merger's last check
	window   int          // see DepRounds.Window; 0: unbounded
	nw       int
	hooks    DepHooks
	// inside counts the worker loops that entered the run; RunContext
	// waits for them, and only for them, before it returns.
	inside sync.WaitGroup
}

func (r *depRun[P, T]) task(i int) *depTask[P, T] {
	seg, off := depLocate(i)
	return &r.segs[seg][off]
}

func (r *depRun[P, T]) publishLocked(p P) {
	if seg, _ := depLocate(r.total); seg == len(r.segs) {
		r.segs = append(r.segs, make([]depTask[P, T], depSegLen(seg)))
	}
	t := r.task(r.total)
	t.p = p
	t.st = depPublished
	r.total++
	r.moreWork.Signal()
}

// workerLoop is one pool worker's life for the whole run: claim a batch
// of published tasks off the front of the order (FIFO, so the merger's
// head is expanded early) and expand them. A loop that a busy pool
// starts only after the run has ended returns at once without touching
// the engine. A panicking expansion ends the run: the worker records
// the panic, wakes everyone, and returns to the pool.
func (r *depRun[P, T]) workerLoop(expand func(i int, p *P, slot *T)) {
	r.mu.Lock()
	if r.finished {
		r.mu.Unlock()
		return
	}
	r.inside.Add(1)
	r.mu.Unlock()
	defer r.inside.Done()
	defer func() {
		if v := recover(); v != nil {
			r.mu.Lock()
			if r.panicked == nil {
				r.panicked = &WorkerPanic{Value: v, Stack: debug.Stack()}
			}
			r.finished = true
			r.moreWork.Broadcast()
			r.headRdy.Broadcast()
			r.mu.Unlock()
		}
	}()
	var buf [MaxGrain]*depTask[P, T]
	for {
		r.mu.Lock()
		for !r.claimableLocked() && !r.finished {
			r.moreWork.Wait()
		}
		if r.finished {
			r.mu.Unlock()
			return
		}
		backlog := r.total - r.next
		g := DepGrainSize(backlog, r.nw)
		if r.window > 0 {
			g = min(g, r.head+r.window-r.next)
		}
		lo := r.next
		r.next += g
		batch := buf[:g]
		for k := range batch {
			t := r.task(lo + k)
			t.st = depClaimed
			batch[k] = t
		}
		r.mu.Unlock()
		if h := r.hooks.Ready; h != nil {
			h(backlog)
		}
		for k, t := range batch {
			expand(lo+k, &t.p, &t.slot)
			r.mu.Lock()
			t.st = depExpanded
			if r.waitFor >= 0 {
				r.headRdy.Signal()
			}
			stop := r.finished
			r.mu.Unlock()
			if stop {
				// The merger is done (truncation or completion); the rest
				// of the batch will never be merged.
				return
			}
		}
	}
}

// claimableLocked reports whether a published task may be claimed now:
// one exists, and it lies within the window.
func (r *depRun[P, T]) claimableLocked() bool {
	return r.next < r.total && (r.window <= 0 || r.next < r.head+r.window)
}

// Run executes the task graph seeded with the given payloads. expand
// fills task i's slot from its payload (parallel, unordered); merge
// consumes tasks in strict task order on the caller's goroutine and may
// publish new tasks through emit (valid only during the merge callback).
// A merge returning false stops the run immediately — the engines'
// truncation cut: remaining tasks are dropped, in-flight expansions are
// drained, and Run returns false after every worker has quiesced, so no
// callback touches engine state after Run returns. Otherwise Run returns
// true once every published task is merged.
//
// A panic in expand or merge ends the run the same way, and Run panics
// only after the workers have quiesced: with the merger's own panic
// value, or with a *WorkerPanic carrying a pool worker's.
func (d *DepRounds[P, T]) Run(
	seeds []P,
	expand func(i int, p *P, slot *T),
	merge func(i int, p *P, slot *T, emit func(P)) bool,
) bool {
	return d.RunContext(context.Background(), seeds, expand, merge)
}

// RunContext is Run with cooperative cancellation. Once ctx is
// cancelled the merger stops before its next merge — including waking
// out of a blocked wait on the head task — and RunContext takes the
// early-stop path a false-returning merge takes: remaining tasks are
// dropped, in-flight expansions finish their current item and quiesce,
// and RunContext returns false only after every worker has left the
// run, so no callback touches engine state afterwards. Cancellation
// latency is bounded by the longest single expansion in flight.
func (d *DepRounds[P, T]) RunContext(
	ctx context.Context,
	seeds []P,
	expand func(i int, p *P, slot *T),
	merge func(i int, p *P, slot *T, emit func(P)) bool,
) bool {
	r := &depRun[P, T]{nw: d.pool.Workers(), waitFor: -1, hooks: d.hooks, window: d.window}
	r.moreWork.L = &r.mu
	r.headRdy.L = &r.mu
	r.mu.Lock()
	for i := range seeds {
		r.publishLocked(seeds[i])
	}
	r.mu.Unlock()

	if d.pool != nil {
		// The run does not wait for this goroutine: on a pool busy with
		// other runs its loops may start only after the run has ended, and
		// then return at once. It ends once every loop has run, and
		// Pool.Close waits for it.
		go d.pool.Run(r.nw, func(int) { r.workerLoop(expand) })
	}
	ok := func() bool {
		// Whether the merge loop returns or panics, the run ends here:
		// workers stop claiming, and no callback may outlive RunContext.
		defer func() {
			r.mu.Lock()
			r.finished = true
			r.moreWork.Broadcast()
			r.mu.Unlock()
			r.inside.Wait()
		}()
		return r.mergeLoop(ctx, d.pool != nil, expand, merge)
	}()
	if r.panicked != nil {
		panic(r.panicked)
	}
	return ok
}

// mergeLoop is the merger: it merges tasks in order on the caller's
// goroutine, expanding the head inline when no worker has claimed it,
// and reports whether every published task was merged.
func (r *depRun[P, T]) mergeLoop(
	ctx context.Context,
	pooled bool,
	expand func(i int, p *P, slot *T),
	merge func(i int, p *P, slot *T, emit func(P)) bool,
) bool {
	done := ctx.Done()
	cancelled := func() bool {
		if done == nil {
			return false
		}
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	if done != nil && pooled {
		// The merger may be asleep on headRdy when ctx fires; this watcher
		// delivers the wakeup (on the nil pool it never sleeps: nothing
		// but the merger itself ever holds the head). The broadcast runs
		// under mu, so it cannot slip between the merger's cancellation
		// check and its Wait (Wait releases mu only once the merger is
		// registered on the cond).
		stopWatch := make(chan struct{})
		defer close(stopWatch)
		go func() {
			select {
			case <-done:
				r.mu.Lock()
				r.headRdy.Broadcast()
				r.mu.Unlock()
			case <-stopWatch:
			}
		}()
	}

	emit := func(p P) {
		r.mu.Lock()
		r.publishLocked(p)
		r.mu.Unlock()
	}

	for head := 0; ; {
		if cancelled() {
			return false
		}
		r.mu.Lock()
		if r.window > 0 && head != r.head {
			// The window slid: wake the workers it held back.
			held := r.next >= r.head+r.window
			r.head = head
			if held && r.claimableLocked() {
				r.moreWork.Broadcast()
			}
		}
		if head >= r.total {
			// total grows only through emit (this goroutine), so an empty
			// remainder here is final.
			r.mu.Unlock()
			return true
		}
		t := r.task(head)
		for {
			if r.finished || cancelled() {
				// A worker panicked, or ctx fired: merge nothing more.
				r.mu.Unlock()
				return false
			}
			if t.st == depExpanded {
				break
			}
			if t.st == depPublished {
				// Head unclaimed — claims cover a contiguous prefix and
				// everything before head is merged, so next == head. Expand
				// it inline: the merger never depends on pool progress.
				t.st = depClaimed
				r.next = head + 1
				r.mu.Unlock()
				expand(head, &t.p, &t.slot)
				r.mu.Lock()
				t.st = depExpanded
				continue
			}
			// A worker holds the head; it will signal when the expansion
			// finishes, and the ctx watcher broadcasts on cancellation.
			r.waitFor = head
			if h := r.hooks.MergeWait; h != nil {
				h()
			}
			r.headRdy.Wait()
			r.waitFor = -1
		}
		r.mu.Unlock()
		if !merge(head, &t.p, &t.slot, emit) {
			return false
		}
		// The merged task is dead: no other goroutine will ever touch an
		// index below next again, so release its payload and slot
		// (frontier configurations would otherwise be pinned for the whole
		// run), and once head leaves a segment drop the segment itself, so
		// a run retains only the segments spanning [head, total).
		*t = depTask[P, T]{}
		head++
		if seg, off := depLocate(head); off == 0 {
			r.mu.Lock()
			r.segs[seg-1] = nil
			r.mu.Unlock()
		}
	}
}
