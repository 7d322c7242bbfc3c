package sched

import (
	"context"
	"sync"
)

// Scheduler names the two deterministic parallel protocols this package
// provides. No engine selects between them any more — the explorer runs
// DepRounds and the abstract engine runs Rounds (DESIGN.md §7) — and
// the type stays only because benchmark code still passes it through
// pipeline.RunOptions.Sched, which is ignored.
type Scheduler uint8

const (
	// Leveled is the fan-out/serial-merge rounds protocol (Rounds).
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

// depSegBits fixes the segment size of the task store: segments are
// pointer-to-array so a task's address never moves when the store grows,
// letting workers hold *depTask across lock releases.
const (
	depSegBits = 8
	depSegSize = 1 << depSegBits
	depSegMask = depSegSize - 1
)

type depTask[P, T any] struct {
	p    P
	slot T
	st   depState
}

// DepRounds is the dependency-driven counterpart of Rounds: instead of
// leveled fan-out/serial-merge rounds, it runs one pipelined task graph
// whose dependency structure is the weak partial order of the serial
// replay (after Kim, Venet & Thakur, "Deterministic Parallel Fixpoint
// Computation"). Tasks are keyed by sequential discovery order — seeds
// first, then everything emit publishes, in emit order — and
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
// bookkeeping is bit-identical to its sequential form — the same
// determinism contract as Rounds (workers write only their own task's
// slot; merge is the only code touching shared engine state, always
// from the caller's goroutine). An engine whose expansions must agree on
// shared state (the explorer's claim table) makes that state
// order-independent itself: by the time task i merges, every task
// before it has expanded.
//
// The merger never depends on the pool: when the head task is still
// unclaimed it expands it inline, so a Run completes even if every pool
// worker is busy elsewhere (e.g. a shared pool running another engine),
// and on the nil pool every stage runs inline on the caller's goroutine
// in task order — the engine's sequential algorithm, with no goroutine
// started.
// The converse does not hold — a DepRounds run occupies its claimed
// workers until the run finishes, so concurrent rounds on a shared pool
// serialize behind it rather than interleave.
type DepRounds[P, T any] struct {
	pool  *Pool
	hooks DepHooks
}

// NewDepRounds returns a dependency-driven executor over the pool (nil
// for inline serial execution) with the given hooks.
func NewDepRounds[P, T any](pool *Pool, hooks DepHooks) *DepRounds[P, T] {
	return &DepRounds[P, T]{pool: pool, hooks: hooks}
}

// Pool returns the pool the executor schedules on (nil when inline).
func (d *DepRounds[P, T]) Pool() *Pool { return d.pool }

// depRun is one Run's shared state. All fields are guarded by mu except
// the cond vars' own queues; task payloads and slots are written outside
// mu but every handoff (publish→claim, expand→own/merge) goes through a
// state transition under mu, which carries the happens-before edge.
type depRun[P, T any] struct {
	mu       sync.Mutex
	moreWork sync.Cond // workers wait for published tasks or shutdown
	headRdy  sync.Cond // merger waits for the head task to progress
	segs     []*[depSegSize]depTask[P, T]
	total    int  // published tasks
	next     int  // lowest unclaimed index; [0,next) are claimed
	finished bool // merger done (normal completion or early stop)
	waitFor  int  // index the merger is blocked on; -1 when it is not
	nw       int
	hooks    DepHooks
}

func (r *depRun[P, T]) task(i int) *depTask[P, T] {
	return &r.segs[i>>depSegBits][i&depSegMask]
}

func (r *depRun[P, T]) publishLocked(p P) {
	if r.total>>depSegBits == len(r.segs) {
		r.segs = append(r.segs, new([depSegSize]depTask[P, T]))
	}
	t := r.task(r.total)
	t.p = p
	t.st = depPublished
	r.total++
	r.moreWork.Signal()
}

// workerLoop is one pool worker's life for the whole run: claim a batch
// of published tasks off the front of the order (FIFO, so the merger's
// head is expanded early) and expand them.
func (r *depRun[P, T]) workerLoop(expand func(i int, p *P, slot *T)) {
	batch := make([]*depTask[P, T], 0, MaxGrain)
	for {
		r.mu.Lock()
		for r.next >= r.total && !r.finished {
			r.moreWork.Wait()
		}
		if r.finished {
			r.mu.Unlock()
			return
		}
		backlog := r.total - r.next
		g := DepGrainSize(backlog, r.nw)
		lo := r.next
		r.next += g
		batch = batch[:0]
		for i := lo; i < lo+g; i++ {
			t := r.task(i)
			t.st = depClaimed
			batch = append(batch, t)
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

// Run executes the task graph seeded with the given payloads. expand
// fills task i's slot from its payload (parallel, unordered); merge
// consumes tasks in strict task order on the caller's goroutine and may
// publish new tasks through emit (valid only during the merge callback).
// A merge returning false stops the run immediately — the engines'
// truncation cut: remaining tasks are dropped, in-flight expansions are
// drained, and Run returns false after every worker has quiesced, so no
// callback touches engine state after Run returns. Otherwise Run returns
// true once every published task is merged.
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
	done := ctx.Done()
	r := &depRun[P, T]{nw: d.pool.Workers(), waitFor: -1, hooks: d.hooks}
	r.moreWork.L = &r.mu
	r.headRdy.L = &r.mu
	r.mu.Lock()
	for i := range seeds {
		r.publishLocked(seeds[i])
	}
	r.mu.Unlock()

	var workersDone chan struct{}
	if d.pool != nil {
		workersDone = make(chan struct{})
		go func() {
			d.pool.Run(r.nw, func(int) { r.workerLoop(expand) })
			close(workersDone)
		}()
	}

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
	if done != nil && d.pool != nil {
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

	ok := true
	head := 0
	for {
		if cancelled() {
			ok = false
			break
		}
		r.mu.Lock()
		if head >= r.total {
			// total grows only through emit (this goroutine), so an empty
			// remainder here is final.
			r.mu.Unlock()
			break
		}
		stopped := false
		for {
			if cancelled() {
				stopped = true
				break
			}
			t := r.task(head)
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
			if h := d.hooks.MergeWait; h != nil {
				h()
			}
			r.headRdy.Wait()
			r.waitFor = -1
		}
		if stopped {
			r.mu.Unlock()
			ok = false
			break
		}
		t := r.task(head)
		r.mu.Unlock()
		if !merge(head, &t.p, &t.slot, emit) {
			ok = false
			break
		}
		// The merged task is dead: no other goroutine will ever touch an
		// index below next again, so release its payload and slot
		// (frontier configurations would otherwise be pinned for the whole
		// run), and once head leaves a segment drop the segment itself, so
		// a run retains only the segments spanning [head, total).
		*t = depTask[P, T]{}
		head++
		if head&depSegMask == 0 {
			r.mu.Lock()
			r.segs[head>>depSegBits-1] = nil
			r.mu.Unlock()
		}
	}

	r.mu.Lock()
	r.finished = true
	r.moreWork.Broadcast()
	r.mu.Unlock()
	if workersDone != nil {
		<-workersDone
	}
	return ok
}
