package explore

import (
	"context"

	"psa/internal/metrics"
	"psa/internal/sched"
	"psa/internal/sem"
)

// exploreDep is the explorer's one worklist loop: BFS generation run on
// sched.DepRounds, so no level barrier exists. Each frontier entry
// becomes one task in discovery order. Workers expand tasks
// (enabledness, stubborn sets, firing, canonical encoding or
// fingerprinting) as soon as they are published — freely crossing BFS
// level boundaries — and the serial merge chain does the BFS
// bookkeeping in strict task order. One deep coarsened run therefore
// never stalls a whole level: successors of already-merged entries are
// being expanded while the straggler is still running. Leveled rounds
// on sched.Rounds measured slower for this engine (DESIGN.md §7).
//
// At 0 or 1 workers the executor runs on the nil pool, which performs
// expand, own, and merge inline for one task after another: the plain
// sequential BFS.
//
// State identity is resolved in a serial "own" chain between expansion
// and merge: the visited set (in fingerprint mode an fpSet internally
// sharded by fingerprint prefix — each shard owns dedup for its
// fingerprint range) is consulted in exactly sequential order, one task
// at a time, recording a freshness verdict per fired transition. This
// is the deterministic cross-shard reconciliation: which worker
// computed an identity never matters, because insertion order — and
// therefore dedup outcome, discovery-parent attribution, and
// next-frontier order — is the inline run's verbatim. With workers the
// own chain runs ahead of the merge, so on a truncated run it may
// insert identities the merge never reached; that over-insertion is
// invisible in Result and in every deterministic counter (freshness
// verdicts of merged entries depend only on prior entries in the same
// order) and shows up only in the perf-only visited_bytes gauge.
//
// All Result fields, the sink event stream, and every deterministic
// metrics counter — including the per-level stats and MaxFrontier,
// reconstructed from a FIFO queue's wave countdown — are bit-identical
// at any worker count.
// Cancellation rides dep.RunContext: the merge chain stops before its
// next task once ctx fires, in-flight expansions drain, and the partial
// Result is coherent for the merged prefix — the same cut shape as
// MaxConfigs truncation (over-inserted visited-set identities from the
// own chain running ahead are invisible in the Result, exactly as on a
// truncated run).
func exploreDep(ctx context.Context, c0 *sem.Config, opts Options) *Result {
	pool := opts.Pool
	if pool == nil || opts.Workers == 0 || opts.Workers == 1 {
		pool = sched.ForWorkers(opts.Workers)
		defer pool.Close()
	}
	m := opts.Metrics
	defer m.Phase("explore")()
	var sm *sem.Summaries
	if opts.Reduction == Stubborn {
		sm = sem.NewSummaries(c0.Prog)
	}
	ky := newKeyer(opts)
	vis := newVisited(ky.exact)
	defer recordVisitedStats(m, vis)()

	res := &Result{Terminals: map[sem.Key]*sem.Config{}}
	if opts.KeepGraph {
		res.Graph = &Graph{Nodes: map[sem.Key]*Node{}}
	}

	seed := item{cfg: c0}
	if ky.exact {
		k0 := ky.keyOf(c0)
		vis.addKey(k0)
		seed.key = k0
		if res.Graph != nil {
			res.Graph.Nodes[k0] = &Node{Key: k0, Index: 0}
			res.Graph.Order = append(res.Graph.Order, k0)
		}
	} else {
		vis.addFP(ky.fpOf(c0))
	}
	res.States = 1
	m.Inc(metrics.StatesUnique)

	dep := sched.NewDepRounds[item, depSlot](pool, sched.DepHooks{
		Ready:     func(n int) { m.MaxGauge(metrics.DepReadyDepth, int64(n)) },
		MergeWait: func() { m.Inc(metrics.DepMergeWaits) },
	})

	expand := func(i int, cur *item, s *depSlot) {
		s.enabled = cur.cfg.Enabled()
		if len(s.enabled) == 0 {
			s.terminal = true
			if !ky.exact {
				// Terminal keys are exact even in fingerprint mode; hoist
				// the encoding off the serial chains.
				s.tkey = ky.keyOf(cur.cfg)
			}
			return
		}
		expand := s.enabled
		if opts.Reduction == Stubborn {
			expand = stubbornSet(cur.cfg, s.enabled, sm)
		}
		// A coarsened run may only absorb a critical action beyond its
		// first step under FULL expansion: with stubborn sets the fired
		// transition must stay within the access set the stubborn check
		// vetted (the first action), or interleavings are lost.
		absorbLateCritical := opts.Reduction == Full
		s.fired = make([]firedStep, len(expand))
		for j, pi := range expand {
			f := &s.fired[j]
			f.step, f.absorbed = fire(cur.cfg, pi, opts, absorbLateCritical)
			if ky.exact {
				f.key = ky.keyOf(f.step.Config)
			} else {
				f.fp = ky.fpOf(f.step.Config)
			}
		}
	}

	// The own chain: serial, strict task order, sole toucher of the
	// visited set. Runs concurrently with merges of earlier tasks.
	own := func(i int, cur *item, s *depSlot) {
		for j := range s.fired {
			f := &s.fired[j]
			if ky.exact {
				f.fresh = vis.addKey(f.key)
			} else {
				f.fresh = vis.addFP(f.fp)
			}
		}
	}

	// total counts published tasks; total-i is the frontier size (a FIFO
	// queue's len(queue)-head) at the pop of task i, which drives the
	// level countdown and MaxFrontier.
	total := 1
	levelRemaining := 1
	m.BeginLevel(1)

	merge := func(i int, cur *item, s *depSlot, emit func(item)) bool {
		if levelRemaining == 0 {
			m.EndLevel()
			levelRemaining = total - i
			m.BeginLevel(levelRemaining)
		}
		levelRemaining--
		if size := total - i; size > res.MaxFrontier {
			res.MaxFrontier = size
		}
		if s.terminal {
			tk := cur.key
			if !ky.exact {
				tk = s.tkey
			}
			res.Terminals[tk] = cur.cfg
			m.Inc(metrics.TerminalsSeen)
			if cur.cfg.Err != "" {
				res.Errors = append(res.Errors, cur.cfg)
				m.Inc(metrics.ErrorsSeen)
			}
			if res.Graph != nil {
				n := res.Graph.Nodes[cur.key]
				n.Terminal = true
				n.Err = cur.cfg.Err
			}
			return true
		}
		if opts.Sink != nil {
			reportCoEnabled(cur.cfg, s.enabled, opts.Sink)
		}
		if opts.Reduction == Stubborn {
			countStubbornDecision(m, len(s.fired), len(s.enabled))
		}
		for j := range s.fired {
			f := &s.fired[j]
			step := f.step
			res.Edges++
			m.Inc(metrics.TransitionsFired)
			m.Inc(metrics.StatesGenerated)
			m.Add(metrics.CoarsenedSteps, int64(f.absorbed))
			if opts.Sink != nil {
				opts.Sink.Transition(step)
			}
			if opts.CollectEvents {
				res.Events = append(res.Events, step.Events...)
				res.Allocs = append(res.Allocs, step.Allocs...)
			}
			k := f.key // empty in fingerprint mode
			if res.Graph != nil {
				res.Graph.Nodes[cur.key].Out = append(res.Graph.Nodes[cur.key].Out,
					Edge{To: k, Proc: step.Proc, Stmt: describeStep(step)})
			}
			if f.fresh {
				res.States++
				m.Inc(metrics.StatesUnique)
				if res.Graph != nil {
					res.Graph.Nodes[k] = &Node{
						Key: k, Index: len(res.Graph.Order),
						Parent: cur.key, ParentProc: step.Proc, ParentStmt: describeStep(step),
					}
					res.Graph.Order = append(res.Graph.Order, k)
				}
				if res.States >= opts.MaxConfigs {
					res.Truncated = true
					return false
				}
				total++
				emit(item{step.Config, k})
			} else {
				m.Inc(metrics.DedupHits)
			}
		}
		return true
	}

	if !dep.RunContext(ctx, []item{seed}, expand, own, merge) && !res.Truncated {
		res.Cancelled = true
	}
	m.EndLevel()
	return res
}

// depSlot is one task's precomputed results: the enabled set, the fired
// transitions, and the lazily-exact terminal key in fingerprint mode —
// everything the serial merge needs for the task's bookkeeping.
type depSlot struct {
	terminal bool
	enabled  []int
	fired    []firedStep
	tkey     sem.Key
}

// firedStep is one fired transition: the step, its state identity (key
// in exact mode, fingerprint otherwise), the coarsened micro-steps it
// absorbed, and the own chain's freshness verdict.
type firedStep struct {
	step     *sem.StepResult
	key      sem.Key         // exact mode
	fp       sem.Fingerprint // fingerprint mode
	absorbed int
	fresh    bool
}
