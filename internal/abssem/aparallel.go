package abssem

import (
	"context"
	"sync"
	"time"

	"psa/internal/lang"
	"psa/internal/metrics"
	"psa/internal/sched"
)

// analyzeParallel is the abstract fixpoint engine's one worklist loop:
// the FIFO worklist of §6 run on sched.DepRounds, the dependency-driven
// executor the explorer shares, so successor generation parallelizes
// while the lattice bookkeeping stays serial (after Kim, Venet & Thakur,
// "Deterministic Parallel Fixpoint Computation", POPL 2020). Each
// worklist entry is one task, whose payload is its state.
//
// Workers expand tasks as soon as they are published — sc.stepIn
// (abstract transfer functions) into a scratch, the fold key of each
// successor, its ⊑ verdict against the state it folds into when that
// state exists, and footprint recording into private scratch — from the
// configuration the state holds at that moment (see expandState). The
// serial merge then walks the tasks in worklist order: visits, dedup,
// joins, widening decisions (visits >= WidenAfter), queue appends, and
// the MaxStates truncation cut all happen on one goroutine, and only the
// merge writes the state table, so every Result field and every
// deterministic metrics counter is bit-identical for any worker count.
// A successor that was below its state at expansion is only counted; a
// successor is copied to the heap only when it creates a state.
//
// A state's configuration is published through an atomic pointer, and
// the configuration's shell identity is its version. On a pool, where
// expansions may be reading any state's configuration (their own
// state's, and every target state a verdict tests against), a join
// never writes a published configuration: it joins into a copy of the
// shell (AConfig.joinInto's copyShell) and publishes the copy. A task
// whose state's configuration changed after its expansion loaded it is
// stale: the merge re-expands it from the current configuration, exactly
// as the sequential worklist would when popping it, and counts the
// perf-only abs_stale_recomputes. On the nil pool joins go in place: no
// expansion runs beside the merge.
//
// On the nil pool (Options.Pool unset) the executor expands each task
// right before its merge: the plain sequential worklist, which never
// re-expands.
//
// Cancellation rides dep.RunContext: the merge stops before its next
// entry once ctx fires, in-flight expansions drain, and the run falls
// through to collection exactly like the MaxStates truncation cut, so
// the partial Result is coherent for the merged prefix.
//
// It returns the state table too, which only tests read.
func analyzeParallel(ctx context.Context, sc *stepCtx, opts Options) (*Result, *stateTable) {
	pool := opts.Pool
	// Metrics discipline: every counter that must not depend on the
	// worker count (visits, joins, widenings, states) is recorded in the
	// serial merge; workers only compute. The scheduling-dependent ones
	// (abs_stale_recomputes, abs_dep_merge_waits, dep_ready_depth) are
	// perf-only.
	m := opts.Metrics
	defer m.Phase("abstract")()
	res := &Result{prog: sc.prog, foot: sc.foot}

	init := initialConfig(sc.prog, opts.Domain)
	st0 := &aState{queued: true}
	st0.cfg.Store(init)
	states := &stateTable{m: map[ctrlSig]*aState{init.signature(): st0}}
	total := 1 // tasks published: the worklist's appends

	dep := sched.NewDepRounds[*aState, aSlot](pool, sched.DepHooks{
		Ready:     func(n int) { m.MaxGauge(metrics.DepReadyDepth, int64(n)) },
		MergeWait: func() { m.Inc(metrics.AbsDepMergeWaits) },
	}).Window(runAhead)

	// Phase time is summed per task and flushed once: each expansion's
	// time is measured in its slot, each merge's on the merger.
	timed := m != nil
	var expandNanos, mergeNanos, merged int64

	expand := func(i int, stv **aState, s *aSlot) {
		var start time.Time
		if timed {
			start = time.Now()
		}
		s.ex = expandState(sc, states, (*stv).cfg.Load())
		if timed {
			s.nanos = time.Since(start).Nanoseconds()
		}
	}

	// merge is one worklist step over one task; it returns false on the
	// MaxStates truncation cut.
	merge := func(i int, pstv **aState, s *aSlot, emit func(*aState)) bool {
		// The slot is done with once merged: release its scratch.
		defer func() {
			s.ex.release()
			*s = aSlot{}
		}()
		if timed {
			defer func(start time.Time) {
				mergeNanos += time.Since(start).Nanoseconds()
				expandNanos += s.nanos
				merged++
			}(time.Now())
		}
		stv := *pstv
		m.SetGauge(metrics.QueueLen, int64(total-i))
		m.MaxGauge(metrics.MaxFrontier, int64(total-i))
		stv.queued = false
		stv.visits++
		res.Visits++
		m.Inc(metrics.AbsVisits)

		e := &s.ex
		if len(e.enabled) == 0 {
			return true // terminal; collected after the fixpoint
		}
		if cfg := stv.cfg.Load(); cfg != e.parent {
			// A join grew this state after the expansion loaded it;
			// recompute its successors, and their verdicts, from the
			// current configuration. enabled() is control-only, so the
			// terminal check above holds either way.
			e.release()
			*e = expandState(sc, states, cfg)
			m.Inc(metrics.AbsStaleRecomputes)
		}
		lo := 0
		for j, hi := range e.ends {
			if e.foots != nil {
				sc.foot.merge(e.foots[j])
			}
			for k := lo; k < hi; k++ {
				succ := &e.succs[k]
				if succ.mayErr {
					res.MayError = true
				}
				if succ.witness {
					continue // error witness: no continuation
				}
				cur := succ.target
				if cur == nil {
					if cur = states.m[ctrlSig(succ.sig)]; cur == nil {
						if len(states.m) >= opts.MaxStates {
							res.Truncated = true
							return false
						}
						// The one place a successor is built on the heap.
						cur = &aState{queued: true}
						cur.cfg.Store(commit(e.parent, succ.cfg))
						states.put(ctrlSig(succ.sig), cur)
						total++
						emit(cur)
						continue
					}
				}
				widen := cur.visits >= opts.WidenAfter
				m.Inc(metrics.AbsJoins)
				if widen {
					m.Inc(metrics.AbsWidenings)
				}
				if succ.below {
					// Below the state at expansion, so below it now:
					// the join changes nothing (see expandState).
					continue
				}
				// joinInto copies what it keeps out of the scratch
				// successor. On a pool, expansions may be reading any
				// state's configuration, so a join never writes a
				// published one: it goes into a copy of the shell.
				cfg := cur.cfg.Load()
				if nc := cfg.joinInto(succ.cfg, widen, pool != nil); nc != nil {
					if nc != cfg {
						cur.cfg.Store(nc)
					}
					if !cur.queued {
						cur.queued = true
						total++
						emit(cur)
					}
				}
			}
			lo = hi
		}
		return true
	}

	if !dep.RunContext(ctx, []*aState{st0}, expand, merge) && !res.Truncated {
		// Truncated or cancelled: fall through to collection either way,
		// so the partial result reports the explored prefix.
		res.Cancelled = true
	}
	if timed {
		m.RecordPhase("abstract-expand", expandNanos, merged)
		m.RecordPhase("abstract-merge", mergeNanos, merged)
	}
	res.collect(states.m, m)
	return res, states
}

// runAhead is the executor's window (sched.DepRounds.Window): workers
// expand at most this many tasks past the merge. Unbounded, workers run
// a whole BFS frontier ahead, so an expansion rarely finds the states
// its successors fold into (no verdict), every frontier task holds a
// scratch, and states joined meanwhile are expanded twice. On
// philosophers-5 interval at 2 workers a window of 64 raised the
// verdicts found at expansion from about 1,000 to 12,000 of 32,401
// successors and took stale recomputes from 5–19 to 0 at no loss of
// speed; 16 and 32 found more but kept the merge waiting more often.
const runAhead = 64

// stateTable maps fold keys to stored states. Only the merge writes it,
// and it reads without locking; expansions on pool workers read it under
// the read lock to find each successor's target state.
type stateTable struct {
	mu sync.RWMutex
	m  map[ctrlSig]*aState
}

// get returns the state stored under the key sig (nil if none). The
// lookup converts sig without allocating.
func (t *stateTable) get(sig []byte) *aState {
	t.mu.RLock()
	st := t.m[ctrlSig(sig)]
	t.mu.RUnlock()
	return st
}

// put stores st under sig; only the merge calls it.
func (t *stateTable) put(sig ctrlSig, st *aState) {
	t.mu.Lock()
	t.m[sig] = st
	t.mu.Unlock()
}

// aSlot is one task's expansion; nanos is the expansion's wall-clock
// when metrics are on.
type aSlot struct {
	ex    aExpansion
	nanos int64
}

// aExpansion is one worklist entry's precomputed expansion: the
// configuration it was computed from (parent, whose identity the merge
// compares with the state's current one) and, per enabled process, its
// successors (succs[ends[j-1]:ends[j]] for the j-th) and the footprints
// its step recorded into private scratch (nil unless collecting). The
// successors live in scr until release after the entry's merge; all but
// parent and foots is scr's memory too.
type aExpansion struct {
	parent  *AConfig
	scr     *aScratch
	enabled []int
	ends    []int
	succs   []aSucc
	foots   []*footRec
}

// aSucc is one successor as expansion left it for the merge: an error
// witness carries only MayError, and any other successor is cfg, the
// scratch successor, with the state it folds into when that existed at
// expansion (target, and below when the successor was below it then),
// or its fold key when none did (sig).
type aSucc struct {
	cfg     *AConfig
	target  *aState
	sig     []byte
	mayErr  bool
	below   bool
	witness bool
}

// expandState computes the successors of every enabled process of cfg,
// with footprints attributed per process, and tests each successor
// against the state it folds into. The serial merge consumes its output
// in worklist order, including the mid-entry MaxStates truncation cut
// (which drops whole processes, so footprints are scoped per process
// too). When footprints are being collected, each process steps through
// a shallow copy of sc pointing at a private scratch recorder, so
// concurrent expansions never share the mutable footprint map;
// everything else in sc is read-only during a run.
//
// Every process steps into one scratch (see aScratch), which the entry
// keeps until its merge is done. A successor's fold key is written into
// a reused buffer and looked up in the state table; when a state is
// found, its configuration is loaded and the successor tested against
// it with absorbs, the test joinInto makes. The verdict "below" still
// holds when the merge reaches the successor, because a stored state
// only grows (every join and widening is an upper bound of what was
// stored) and absorbs is transitive; so the merge's joinInto would
// change nothing, even a widening, since b ⊑ a ⇒ a ∇ b = a (the law
// lattice.CheckWidening pins), and the merge only counts the join. Any
// other successor is left to the merge as it is: joinInto tests and
// joins it from the scratch, and only a successor that creates a state
// is committed to the heap.
func expandState(sc *stepCtx, states *stateTable, cfg *AConfig) aExpansion {
	scr := scratchPool.Get().(*aScratch)
	e := aExpansion{parent: cfg, scr: scr}
	if scr.enabled = cfg.appendEnabled(scr.enabled[:0]); len(scr.enabled) == 0 {
		e.release()
		return e
	}
	e.enabled = scr.enabled
	if sc.foot != nil {
		e.foots = make([]*footRec, len(e.enabled))
	}
	for j, pi := range e.enabled {
		scStep := sc
		if sc.foot != nil {
			fr := &footRec{m: map[lang.NodeID]map[AbsAccess]bool{}}
			c := *sc
			c.foot = fr
			scStep = &c
			e.foots[j] = fr
		}
		for _, succ := range scStep.stepIn(scr, cfg, pi) {
			scr.succs = append(scr.succs, sc.verdict(scr, states, succ))
		}
		scr.ends = append(scr.ends, len(scr.succs))
	}
	e.ends, e.succs = scr.ends, scr.succs
	return e
}

// release returns the expansion's scratch for reuse; nothing of the
// expansion may be used afterwards.
func (e *aExpansion) release() {
	if e.scr != nil {
		e.scr.reset()
		scratchPool.Put(e.scr)
		e.scr = nil
	}
}

// verdict tests succ, a scratch successor, against the state it folds
// into.
func (sc *stepCtx) verdict(scr *aScratch, states *stateTable, succ *AConfig) aSucc {
	out := aSucc{cfg: succ, mayErr: succ.MayError}
	if succ.Procs == nil {
		out.cfg, out.witness = nil, true
		return out
	}
	scr.sig = succ.appendSignature(scr.sig[:0])
	if out.target = states.get(scr.sig); out.target == nil {
		out.sig = scr.key(scr.sig)
		return out
	}
	cfg := out.target.cfg.Load()
	out.below = cfg.absorbs(succ)
	if sc.onVerdict != nil {
		sc.onVerdict(cfg, succ, out.below)
	}
	if out.below {
		out.cfg = nil
	}
	return out
}
