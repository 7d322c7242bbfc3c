package explore

import (
	"context"

	"psa/internal/metrics"
	"psa/internal/sched"
	"psa/internal/sem"
)

// exploreDep is the multi-worker variant of ExploreFrom: the same BFS
// generation as the sequential loop, run on sched.DepRounds so no level
// barrier exists. Each frontier entry becomes one task in sequential
// discovery order. Workers expand tasks (enabledness, stubborn sets,
// firing, canonical encoding or fingerprinting) as soon as they are
// published — freely crossing BFS level boundaries — and the serial
// merge chain replays the sequential explorer's bookkeeping in strict
// task order. One deep coarsened run therefore never stalls a whole
// level: successors of already-merged entries are being expanded while
// the straggler is still running. It is the explorer's only parallel
// loop: leveled rounds on sched.Rounds measured slower for this engine
// (DESIGN.md §7).
//
// State identity is resolved in a serial "own" chain between expansion
// and merge: the visited set (in fingerprint mode an fpSet internally
// sharded by fingerprint prefix — each shard owns dedup for its
// fingerprint range) is consulted in exactly sequential order, one task
// at a time, recording a freshness verdict per fired transition. This
// is the deterministic cross-shard reconciliation: which worker
// computed an identity never matters, because insertion order — and
// therefore dedup outcome, discovery-parent attribution, and
// next-frontier order — replays the sequential explorer's verbatim.
// The own chain runs ahead of the merge, so on a truncated run it may
// insert identities the sequential explorer never reached; that
// over-insertion is invisible in Result and in every deterministic
// counter (freshness verdicts of merged entries depend only on prior
// entries in the same order) and shows up only in the perf-only
// visited_bytes gauge.
//
// All Result fields, the sink event stream, and every deterministic
// metrics counter — including the per-level stats and MaxFrontier,
// reconstructed from the same wave countdown the sequential loop uses —
// are bit-identical to the sequential explorer's at any worker count.
// Cancellation rides dep.RunContext: the merge chain stops before its
// next task once ctx fires, in-flight expansions drain, and the partial
// Result is coherent for the merged prefix — the same cut shape as
// MaxConfigs truncation (over-inserted visited-set identities from the
// own chain running ahead are invisible in the Result, exactly as on a
// truncated run).
func exploreDep(ctx context.Context, c0 *sem.Config, opts Options) *Result {
	pool := opts.Pool
	if pool == nil {
		pool = sched.NewPool(opts.Workers)
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
		absorbLateCritical := opts.Reduction == Full
		for _, pi := range expand {
			step, absorbed := fire(cur.cfg, pi, opts, absorbLateCritical)
			s.steps = append(s.steps, step)
			if ky.exact {
				s.keys = append(s.keys, ky.keyOf(step.Config))
			} else {
				s.fps = append(s.fps, ky.fpOf(step.Config))
			}
			s.absorbed = append(s.absorbed, absorbed)
		}
	}

	// The own chain: serial, strict task order, sole toucher of the
	// visited set. Runs concurrently with merges of earlier tasks.
	own := func(i int, cur *item, s *depSlot) {
		if s.terminal {
			return
		}
		s.fresh = make([]bool, len(s.steps))
		for j := range s.steps {
			if ky.exact {
				s.fresh[j] = vis.addKey(s.keys[j])
			} else {
				s.fresh[j] = vis.addFP(s.fps[j])
			}
		}
	}

	// total counts published tasks; total-i is the sequential engine's
	// len(queue)-head at the pop of task i, which drives the level
	// countdown and MaxFrontier.
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
			countStubbornDecision(m, len(s.steps), len(s.enabled))
		}
		for j, step := range s.steps {
			res.Edges++
			m.Inc(metrics.TransitionsFired)
			m.Inc(metrics.StatesGenerated)
			m.Add(metrics.CoarsenedSteps, int64(s.absorbed[j]))
			if opts.Sink != nil {
				opts.Sink.Transition(step)
			}
			if opts.CollectEvents {
				res.Events = append(res.Events, step.Events...)
				res.Allocs = append(res.Allocs, step.Allocs...)
			}
			var k sem.Key
			if ky.exact {
				k = s.keys[j]
			}
			fresh := s.fresh[j]
			if res.Graph != nil {
				res.Graph.Nodes[cur.key].Out = append(res.Graph.Nodes[cur.key].Out,
					Edge{To: k, Proc: step.Proc, Stmt: describeStep(step)})
			}
			if fresh {
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
// steps with their state identities (keys in exact mode, fingerprints
// otherwise), the coarsened micro-step counts, the lazily-exact terminal
// key in fingerprint mode, and the own chain's freshness verdict per
// fired transition — everything the serial merge needs to replay the
// sequential explorer's bookkeeping.
type depSlot struct {
	terminal bool
	enabled  []int
	steps    []*sem.StepResult
	keys     []sem.Key         // exact mode
	fps      []sem.Fingerprint // fingerprint mode
	absorbed []int             // coarsened micro-steps per fired transition
	tkey     sem.Key
	fresh    []bool
}
