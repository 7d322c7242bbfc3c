package abssem

import (
	"context"
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
// Workers expand tasks as soon as they are published — sc.step
// (abstract transfer functions), signature (Taylor fold keys), and
// footprint recording into private scratch — from the configuration
// the state holds at that moment. The serial merge then walks the tasks
// in worklist order: visits, dedup, joins, widening decisions (visits
// >= WidenAfter), queue appends, and the MaxStates truncation cut all
// happen on one goroutine, and only the merge touches the state table,
// so every Result field and every deterministic metrics counter is
// bit-identical for any worker count.
//
// A state's configuration is published through an atomic pointer, and
// the configuration's shell identity is its version: a join into a state
// that still has a queued task — whose expansion may be reading the
// configuration right now — never writes it, but joins into a copy of
// the shell (AConfig.joinInto's copyShell) and publishes the copy. A
// task whose state's configuration changed after its expansion loaded
// it is stale: the merge re-expands it from the current configuration,
// exactly as the sequential worklist would when popping it, and counts
// the perf-only abs_stale_recomputes. Joins into a state with no queued
// task, and every join on the nil pool, go in place: no expansion can
// be reading the configuration then.
//
// On the nil pool (Options.Pool unset) the executor expands each task
// right before its merge: the plain sequential worklist, which never
// re-expands.
//
// Cancellation rides dep.RunContext: the merge stops before its next
// entry once ctx fires, in-flight expansions drain, and the run falls
// through to collection exactly like the MaxStates truncation cut, so
// the partial Result is coherent for the merged prefix.
func analyzeParallel(ctx context.Context, prog *lang.Program, opts Options) *Result {
	pool := opts.Pool
	// Metrics discipline: every counter that must not depend on the
	// worker count (visits, joins, widenings, states) is recorded in the
	// serial merge; workers only compute. The scheduling-dependent ones
	// (abs_stale_recomputes, abs_dep_merge_waits, dep_ready_depth) are
	// perf-only.
	m := opts.Metrics
	defer m.Phase("abstract")()
	sc := newStepCtx(prog, opts)
	res := &Result{prog: prog, foot: sc.foot}

	init := initialConfig(prog, opts.Domain)
	st0 := &aState{queued: true}
	st0.cfg.Store(init)
	states := map[ctrlSig]*aState{init.signature(): st0}
	total := 1 // tasks published: the worklist's appends

	dep := sched.NewDepRounds[*aState, aSlot](pool, sched.DepHooks{
		Ready:     func(n int) { m.MaxGauge(metrics.DepReadyDepth, int64(n)) },
		MergeWait: func() { m.Inc(metrics.AbsDepMergeWaits) },
	})

	// Phase time is summed per task and flushed once: each expansion's
	// time is measured in its slot, each merge's on the merger.
	timed := m != nil
	var expandNanos, mergeNanos, merged int64

	expand := func(i int, stv **aState, s *aSlot) {
		var start time.Time
		if timed {
			start = time.Now()
		}
		s.cfg = (*stv).cfg.Load()
		s.ex = expandState(sc, s.cfg)
		if timed {
			s.nanos = time.Since(start).Nanoseconds()
		}
	}

	// merge is one worklist step over one task; it returns false on the
	// MaxStates truncation cut.
	merge := func(i int, pstv **aState, s *aSlot, emit func(*aState)) bool {
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
		if cfg := stv.cfg.Load(); cfg != s.cfg {
			// A join grew this state after the expansion loaded it;
			// recompute its successors from the current configuration.
			// enabled() is control-only, so the terminal check above
			// holds either way.
			*e = expandState(sc, cfg)
			m.Inc(metrics.AbsStaleRecomputes)
		}
		for j := range e.enabled {
			sc.foot.merge(e.foots[j])
			for k, succ := range e.succs[j] {
				if succ.Procs == nil {
					// Error witness: no continuation.
					if succ.MayError {
						res.MayError = true
					}
					continue
				}
				if succ.MayError {
					res.MayError = true
				}
				nsig := e.sigs[j][k]
				cur, ok := states[nsig]
				if !ok {
					if len(states) >= opts.MaxStates {
						res.Truncated = true
						return false
					}
					cur = &aState{queued: true}
					cur.cfg.Store(succ)
					states[nsig] = cur
					total++
					emit(cur)
					continue
				}
				widen := cur.visits >= opts.WidenAfter
				m.Inc(metrics.AbsJoins)
				if widen {
					m.Inc(metrics.AbsWidenings)
				}
				cfg := cur.cfg.Load()
				if nc := cfg.joinInto(succ, widen, cur.queued && pool != nil); nc != nil {
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
	res.collect(states, m)
	return res
}

// aSlot is one task's expansion and the configuration it was computed
// from, whose identity the merge compares with the state's current one;
// nanos is the expansion's wall-clock when metrics are on.
type aSlot struct {
	cfg   *AConfig
	ex    aExpansion
	nanos int64
}

// aExpansion is one worklist entry's precomputed expansion: per enabled
// process, the successors of sc.step, their fold signatures (empty for
// error witnesses, whose control is gone), and the footprints the step
// recorded into private scratch (nil unless collecting).
type aExpansion struct {
	enabled []int
	succs   [][]*AConfig
	sigs    [][]ctrlSig
	foots   []*footRec
}

// expandState computes the successors of every enabled process of cfg:
// sc.step and signature, with footprints attributed per process. The
// serial merge consumes its output in worklist order, including the
// mid-entry MaxStates truncation cut (which drops whole processes, so
// footprints are scoped per process too). When footprints are being
// collected, each process steps through a shallow copy of sc pointing at
// a private scratch recorder, so concurrent expansions never share the
// mutable footprint map; everything else in sc is read-only during a
// run.
func expandState(sc *stepCtx, cfg *AConfig) aExpansion {
	e := aExpansion{enabled: cfg.enabled()}
	if len(e.enabled) == 0 {
		return e
	}
	e.succs = make([][]*AConfig, len(e.enabled))
	e.sigs = make([][]ctrlSig, len(e.enabled))
	e.foots = make([]*footRec, len(e.enabled))
	for j, pi := range e.enabled {
		scStep := sc
		if sc.foot != nil {
			fr := &footRec{m: map[lang.NodeID]map[AbsAccess]bool{}}
			c := *sc
			c.foot = fr
			scStep = &c
			e.foots[j] = fr
		}
		succs := scStep.step(cfg, pi)
		sigs := make([]ctrlSig, len(succs))
		for k, succ := range succs {
			if succ.Procs != nil {
				sigs[k] = succ.signature()
			}
		}
		e.succs[j] = succs
		e.sigs[j] = sigs
	}
	return e
}
