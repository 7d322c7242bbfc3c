package abssem

import (
	"context"

	"psa/internal/lang"
	"psa/internal/metrics"
	"psa/internal/sched"
)

// analyzeParallel is the abstract fixpoint engine's one worklist loop:
// FIFO worklist iteration structured into rounds on the shared
// deterministic runtime (internal/sched), so successor generation
// parallelizes while the lattice bookkeeping stays serial (after Kim,
// Venet & Thakur, "Deterministic Parallel Fixpoint Computation", POPL
// 2020). At 0 or 1 workers the rounds run on the nil pool, which
// expands a whole round inline and then merges it.
//
// Each round snapshots the pending worklist and fans the expensive,
// side-effect-free work — sc.step (abstract transfer functions),
// signature (Taylor fold keys), and footprint recording into private
// scratch — out across sched's persistent workers using the strided-
// grain + CAS-claim + steal-cursor scheduling both engines share. The
// serial merge then walks the worklist in FIFO order: visits, dedup,
// joins, widening decisions (visits >= WidenAfter), queue appends, and
// the MaxStates truncation cut all happen in one goroutine, so every
// Result field and every deterministic metrics counter is bit-identical
// for any worker count.
//
// The one way a snapshot can go stale — and the reason a naive leveled
// parallelization of THIS worklist would diverge from one-entry-at-a-
// time iteration — is a join: merging an earlier entry of the round may
// grow the value state of a later entry (the abstract engine joins into
// stored states, where the concrete explorer's states are immutable).
// The merge tracks a per-state change sequence number; an entry whose
// state grew after the round snapshot is re-expanded serially from its
// current value state, exactly as it would be if popped and expanded on
// its own. Stale entries are rare in practice (a state must be re-joined
// in the same round that re-visits it) and are counted in the perf-only
// abs_stale_recomputes metric. The snapshot does not depend on the
// worker count, so the inline run recomputes the same entries.
//
// The dependency-driven executor (sched.DepRounds) measured slower here
// (DESIGN.md §7): a worker may still be reading a state the merge joins
// into, so every such join would have to copy the configuration, and
// those copies cost more than the round barrier saves.
//
// Cancellation rides the sched runtime: rounds.DoContext stops the
// serial merge before its next entry once ctx fires, in-flight
// expansions drain, and the run falls through to collection exactly
// like the MaxStates truncation cut, so the partial Result is coherent
// for the merged prefix.
func analyzeParallel(ctx context.Context, prog *lang.Program, opts Options) *Result {
	pool := opts.Pool
	if pool == nil || opts.Workers == 0 || opts.Workers == 1 {
		pool = sched.ForWorkers(opts.Workers)
		defer pool.Close()
	}
	// Metrics discipline: every counter that must not depend on the
	// worker count (visits, joins, widenings, states) is recorded in the
	// serial merge; workers only compute. The worker-dependent counters
	// (abs_steals, fed through the sched steal hook) and the
	// round-structure ones (abs_stale_recomputes) are perf-only.
	m := opts.Metrics
	defer m.Phase("abstract")()
	sc := newStepCtx(prog, opts)
	res := &Result{prog: prog, foot: sc.foot}

	init := initialConfig(prog, opts.Domain)
	states := map[ctrlSig]*aState{}
	sig0 := init.signature()
	states[sig0] = &aState{cfg: init, queued: true}
	queue := []ctrlSig{sig0}
	head := 0
	// mergeSeq numbers the joins that changed a stored state; a worklist
	// entry is stale when its state's change number postdates the round
	// snapshot the workers expanded.
	mergeSeq := 0

	rounds := sched.NewRounds[aExpansion](pool, sched.Hooks{
		Width:       func(n int) { m.SetGauge(metrics.AbsFrontierWidth, int64(n)) },
		Steals:      func(s int64) { m.Add(metrics.AbsSteals, s) },
		ExpandPhase: func() func() { return m.Phase("abstract-expand") },
		MergePhase:  func() func() { return m.Phase("abstract-merge") },
	})

	for head < len(queue) {
		round := queue[head:]
		roundStart := mergeSeq

		// Expansion phase: precompute every entry's successors from a
		// snapshot of its value state. States are only mutated by the
		// (not yet running) merge, so workers read them freely.
		expand1 := func(i int, e *aExpansion) {
			*e = expandState(sc, states[round[i]].cfg)
		}

		// Merge phase: one worklist step over one round entry; returns
		// false on the MaxStates truncation cut.
		merge1 := func(i int, e *aExpansion) bool {
			sig := round[i]
			m.SetGauge(metrics.QueueLen, int64(len(queue)-head))
			m.MaxGauge(metrics.MaxFrontier, int64(len(queue)-head))
			head++
			stv := states[sig]
			stv.queued = false
			stv.visits++
			res.Visits++
			m.Inc(metrics.AbsVisits)

			if len(e.enabled) == 0 {
				return true // terminal; collected after the fixpoint
			}
			if stv.changed > roundStart {
				// A join earlier in this round grew this entry's value
				// state after the snapshot; recompute its successors from
				// the current state.
				*e = expandState(sc, stv.cfg)
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
						cur = &aState{cfg: succ}
						states[nsig] = cur
						cur.queued = true
						queue = append(queue, nsig)
						continue
					}
					widen := cur.visits >= opts.WidenAfter
					m.Inc(metrics.AbsJoins)
					if widen {
						m.Inc(metrics.AbsWidenings)
					}
					if cur.cfg.joinInto(succ, widen) {
						mergeSeq++
						cur.changed = mergeSeq
						if !cur.queued {
							cur.queued = true
							queue = append(queue, nsig)
						}
					}
				}
			}
			return true
		}

		if !rounds.DoContext(ctx, len(round), expand1, merge1) {
			// Truncated or cancelled: fall through to collection either
			// way, so the partial result reports the explored prefix.
			if !res.Truncated {
				res.Cancelled = true
			}
			break
		}
	}

	res.collect(states, m)
	return res
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
// round.
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
