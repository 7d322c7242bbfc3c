package explore

import (
	"context"
	"sync"

	"psa/internal/lang"
	"psa/internal/metrics"
	"psa/internal/sched"
	"psa/internal/sem"
)

// exploreDep is the explorer's one worklist loop: BFS generation run on
// sched.DepRounds, so no level barrier exists. Each frontier entry
// becomes one task in discovery order. Workers expand tasks
// (enabledness, stubborn sets, co-enabled conflicts, firing, canonical
// encoding or fingerprinting, claiming) as soon as they are published —
// freely crossing BFS level boundaries — and the serial merge does the
// BFS bookkeeping in strict task order. One deep coarsened run therefore
// never stalls a whole level: successors of already-merged entries are
// being expanded while the straggler is still running. The abstract
// fixpoint runs on the same executor (DESIGN.md §7).
//
// On the nil pool (Options.Pool unset) the executor performs expand
// and merge inline for one task after another: the plain sequential
// BFS.
//
// State identity is resolved during expansion by claiming: the visited
// set is a concurrent claim table mapping each state identity to the
// smallest claimID — (task, transition) in sequential firing order —
// that reached it. Expansion steps each transition into per-worker
// scratch storage, identifies the scratch successor, and claims it. A
// transition whose state an earlier transition already claimed is a
// duplicate for sure and is never built; otherwise the successor is
// committed (copied out of the scratch). The merge then reads the
// verdict: a successor is fresh iff its own claim is still the smallest.
// By the time task i merges, every task before it has expanded, so
// every claim that precedes task i's transitions in sequential order is
// in the table, and the verdict is the sequential FIFO loop's verbatim:
// which worker computed an identity never matters, and neither does the
// order claims arrived in. Claims by tasks the merge never reaches (a
// truncated or cancelled run) are invisible in Result and in every
// deterministic counter; they show only in the perf-only visited_bytes
// gauge and states_built counter.
//
// All Result fields, the sink event stream, and every deterministic
// metrics counter — including the per-level stats and MaxFrontier,
// reconstructed from a FIFO queue's wave countdown — are bit-identical
// at any worker count.
// Cancellation rides dep.RunContext: the merge stops before its next
// task once ctx fires, in-flight expansions drain, and the partial
// Result is coherent for the merged prefix — the same cut shape as
// MaxConfigs truncation.
func exploreDep(ctx context.Context, c0 *sem.Config, opts Options) *Result {
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
		seed.key = ky.keyOf(c0)
		vis.claim(seed.key, sem.Fingerprint{}, seedClaim)
		if res.Graph != nil {
			res.Graph.Nodes[seed.key] = &Node{Key: seed.key, Index: 0}
			res.Graph.Order = append(res.Graph.Order, seed.key)
		}
	} else {
		vis.claim("", ky.fpOf(c0), seedClaim)
	}
	res.States = 1
	m.Inc(metrics.StatesUnique)

	dep := sched.NewDepRounds[item, depSlot](opts.Pool, sched.DepHooks{
		Ready:     func(n int) { m.MaxGauge(metrics.DepReadyDepth, int64(n)) },
		MergeWait: func() { m.Inc(metrics.DepMergeWaits) },
	})

	expand := func(i int, cur *item, s *depSlot) {
		s.enabled = cur.cfg.Enabled()
		if len(s.enabled) == 0 {
			s.terminal = true
			if !ky.exact {
				// Terminal keys are exact even in fingerprint mode; hoist
				// the encoding off the serial merge.
				s.tkey = ky.keyOf(cur.cfg)
			}
			return
		}
		if opts.Sink != nil {
			s.conflicts = coEnabledConflicts(cur.cfg, s.enabled)
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
		sc := scratchPool.Get().(*sem.Scratch)
		built := 0
		s.fired = make([]firedStep, len(expand))
		if ky.exact {
			s.keys = make([]sem.Key, len(expand))
		}
		if withEvents(opts) {
			s.events = make([]stepEvents, len(expand))
		}
		for j, pi := range expand {
			f := &s.fired[j]
			step, absorbed := fire(cur.cfg, pi, opts, absorbLateCritical, sc)
			f.stmt, f.proc, f.absorbed = step.Stmt, int32(pi), int32(absorbed)
			if s.events != nil {
				s.events[j] = stepEvents{step.Events, step.Allocs}
			}
			var k sem.Key
			if ky.exact {
				k = ky.keyOf(step.Config)
				s.keys[j] = k
			} else {
				f.fp = ky.fpOf(step.Config)
			}
			if vis.claim(k, f.fp, claimID(i, j)) {
				f.cfg = sc.Commit()
				built++
			}
		}
		sc.Reset()
		scratchPool.Put(sc)
		m.Add(metrics.StatesBuilt, int64(built))
	}

	// total counts published tasks; total-i is the frontier size (a FIFO
	// queue's len(queue)-head) at the pop of task i, which drives the
	// level countdown and MaxFrontier.
	total := 1
	levelRemaining := 1
	m.BeginLevel(1)
	// step is the one StepResult every Sink.Transition call receives,
	// refilled per transition (sinks must not retain it).
	var step sem.StepResult

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
		for _, cf := range s.conflicts {
			opts.Sink.CoEnabled(cur.cfg, cf.a, cf.b, cf.loc, cf.ww)
		}
		if opts.Reduction == Stubborn {
			countStubbornDecision(m, len(s.fired), len(s.enabled))
		}
		for j := range s.fired {
			f := &s.fired[j]
			var k sem.Key // empty in fingerprint mode
			if ky.exact {
				k = s.keys[j]
			}
			// Fresh iff this transition still holds the smallest claim:
			// every claim that precedes it in sequential order is in.
			fresh := f.cfg != nil && vis.owner(k, f.fp) == claimID(i, j)
			if !fresh {
				f.cfg = nil // a later-beaten commit is garbage
			}
			step = sem.StepResult{Config: f.cfg, Stmt: f.stmt, Proc: cur.cfg.Procs[f.proc].Path}
			if s.events != nil {
				step.Events, step.Allocs = s.events[j].events, s.events[j].allocs
			}
			res.Edges++
			m.Inc(metrics.TransitionsFired)
			m.Inc(metrics.StatesGenerated)
			m.Add(metrics.CoarsenedSteps, int64(f.absorbed))
			if opts.Sink != nil {
				opts.Sink.Transition(&step)
			}
			if res.Graph != nil {
				res.Graph.Nodes[cur.key].Out = append(res.Graph.Nodes[cur.key].Out,
					Edge{To: k, Proc: step.Proc, Stmt: describeStep(&step)})
			}
			if fresh {
				res.States++
				m.Inc(metrics.StatesUnique)
				if res.Graph != nil {
					res.Graph.Nodes[k] = &Node{
						Key: k, Index: len(res.Graph.Order),
						Parent: cur.key, ParentProc: step.Proc, ParentStmt: describeStep(&step),
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

	if !dep.RunContext(ctx, []item{seed}, expand, merge) && !res.Truncated {
		res.Cancelled = true
	}
	m.EndLevel()
	return res
}

// scratchPool recycles the storage expansions step successors into, so
// a worker reuses one sem.Scratch across tasks and runs, and a small run
// allocates none.
var scratchPool = sync.Pool{New: func() any { return new(sem.Scratch) }}

// seedClaim is the initial configuration's claim, below every
// transition's.
const seedClaim = 0

// claimID orders transitions as the sequential loop fires them: after
// the seed, transition j of task i in (i, j) lexicographic order. A
// configuration has far fewer than 2²⁴ processes, so j fits the low
// bits.
func claimID(task, trans int) uint64 { return uint64(task+1)<<24 | uint64(trans) }

// depSlot is one task's precomputed results: the enabled set, the
// co-enabled conflicts for the sink, the fired transitions with their
// exact keys (exact mode) and event streams (when a sink or event
// collection wants them), and the lazily-exact terminal key in
// fingerprint mode — everything the serial merge needs for the task's
// bookkeeping. Transition j of task i holds claimID(i, j).
type depSlot struct {
	terminal  bool
	enabled   []int
	conflicts []conflict
	fired     []firedStep
	keys      []sem.Key
	events    []stepEvents
	tkey      sem.Key
}

// firedStep is one fired transition, kept small because every generated
// successor has one until its task merges: the committed successor (nil
// when an earlier transition had already claimed the state at
// expansion), its fingerprint (fingerprint mode), the statement, the
// index of the stepped process in the parent, and the coarsened
// micro-steps it absorbed.
type firedStep struct {
	cfg      *sem.Config
	fp       sem.Fingerprint
	stmt     lang.Stmt
	proc     int32
	absorbed int32
}

// stepEvents is a fired transition's instrumentation.
type stepEvents struct {
	events []sem.Event
	allocs []sem.AllocEvent
}

// conflict is one co-enabled conflicting action pair, as Sink.CoEnabled
// receives it.
type conflict struct {
	a, b lang.NodeID
	loc  sem.Loc
	ww   bool
}
