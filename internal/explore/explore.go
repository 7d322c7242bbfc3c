// Package explore generates the reachable configuration space of a cobegin
// program under the concrete semantics (package sem) and implements the
// paper's two state-space reductions:
//
//   - stubborn sets (paper §2.2–2.3, after [Ove81, Val88/89/90]): at each
//     expansion step only a conflict-closed subset of the enabled
//     transitions is fired, eliminating redundant interleavings while
//     producing exactly the same set of result-configurations;
//   - virtual coarsening (paper Observation 5, after [Pnu86]): maximal runs
//     of a single process containing at most one critical reference are
//     fused into one transition.
//
// The explorer reports state/edge counts (the quantities behind the
// paper's Figures 3 and 5 and the dining-philosophers scaling claim) and
// streams instrumentation (access events, co-enabled conflicts) to the
// analyses of package analysis.
package explore

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"

	"psa/internal/lang"
	"psa/internal/metrics"
	"psa/internal/sched"
	"psa/internal/sem"
)

// Reduction selects the expansion strategy.
type Reduction uint8

// Reduction strategies.
const (
	// Full expands every enabled transition at every configuration.
	Full Reduction = iota
	// Stubborn expands a stubborn set per configuration (Algorithm 1).
	Stubborn
)

func (r Reduction) String() string {
	if r == Stubborn {
		return "stubborn"
	}
	return "full"
}

// Options configures an exploration.
//
// Zero-value audit (the abssem.Options defaulting-bug sweep): every
// integer field here treats 0 as "use the default", and no meaningful
// boundary value is swallowed by that — MaxConfigs has no sensible
// bound below 1, and Workers already gives 0/1 (sequential) and
// negative (GOMAXPROCS) explicit meanings. New limit fields with a
// meaningful 0 must follow abssem's convention: 0 defaults, negative
// requests the boundary 0.
type Options struct {
	// Reduction selects full or stubborn-set expansion (default Full).
	Reduction Reduction
	// Coarsen enables virtual coarsening of non-critical runs.
	Coarsen bool
	// Granularity is forwarded to the semantics (default sem.GranRef).
	Granularity sem.Granularity
	// MaxConfigs aborts exploration after this many distinct
	// configurations (default 1<<20).
	MaxConfigs int
	// CollectEvents retains per-edge access events and allocation events
	// for the analyses; off by default to keep big explorations cheap.
	CollectEvents bool
	// KeepGraph retains the explicit configuration graph (Result.Graph)
	// for witness traces, divergence detection, and DOT export.
	KeepGraph bool
	// NoCanonKeys disables heap-address canonicalization in state
	// identity (the DESIGN.md §5 ablation): allocation-order and garbage
	// differences then keep configurations apart.
	NoCanonKeys bool
	// ExactKeys stores full canonical keys in the visited set instead of
	// the default 128-bit fingerprints. Fingerprint mode retains 16
	// bytes per state and never materializes successor keys at all
	// (terminals are still keyed exactly, lazily); two distinct states
	// fuse with probability ~n²/2¹²⁹ — see sem.Fingerprint. KeepGraph
	// implies exact keys, since graph nodes are addressed by key.
	ExactKeys bool
	// Workers > 1 explores with that many goroutines on the
	// dependency-driven pipeline (dep.go); 0 or 1 is sequential and a
	// negative count uses GOMAXPROCS. Counts, result sets, discovery
	// parents, MaxFrontier, per-level stats, and the sink event stream
	// are all identical to the sequential explorer's.
	Workers int
	// Pool, when non-nil, is the shared scheduler pool (internal/sched)
	// parallel exploration runs on: its worker count governs scheduling,
	// the caller keeps ownership (the explorer never closes it), and
	// consecutive Explore/Analyze calls may reuse it to amortize worker
	// startup. Nil makes each parallel exploration run a private pool
	// sized by Workers. Ignored on sequential runs.
	Pool *sched.Pool
	// Sink, when non-nil, receives instrumentation callbacks during
	// exploration regardless of CollectEvents.
	Sink Sink
	// Metrics, when non-nil, receives counters, gauges, per-level stats,
	// and phase timings during exploration (states generated/deduped,
	// frontier widths, stubborn-set decisions, coarsened steps). Nil
	// disables instrumentation; the fast path is a single nil check, and
	// enabling it never perturbs counts or the deterministic sink order.
	Metrics *metrics.Registry
}

// Sink receives instrumentation during exploration. Implementations live
// in package analysis.
type Sink interface {
	// Transition is called once per explored edge with its step result.
	Transition(res *sem.StepResult)
	// CoEnabled is called for every pair of co-enabled conflicting
	// actions observed at some reachable configuration: stmtA of one
	// process and stmtB of another both enabled, with overlapping access
	// sets of which at least one side writes.
	CoEnabled(c *sem.Config, stmtA, stmtB lang.NodeID, loc sem.Loc, writeWrite bool)
}

// Result summarizes an exploration.
type Result struct {
	// States is the number of distinct configurations reached (including
	// the initial one); Edges the number of transitions fired.
	States int
	Edges  int
	// Terminals maps canonical keys to terminal configurations (the
	// paper's result-configurations). Error states are included and also
	// listed in Errors.
	Terminals map[sem.Key]*sem.Config
	Errors    []*sem.Config
	// Events and Allocs hold all instrumentation when CollectEvents.
	Events []sem.Event
	Allocs []sem.AllocEvent
	// Truncated reports that MaxConfigs was hit; counts are lower bounds
	// and Terminals may be incomplete.
	Truncated bool
	// Cancelled reports that the run's context was cancelled before the
	// exploration finished (see ExploreContext). A cancelled result obeys
	// the same artifact-coherence contract as a truncated one: counts,
	// Terminals, Errors, Events, and the Graph all describe exactly the
	// explored prefix. Unlike Truncated, the cut point depends on timing,
	// so two cancelled runs of the same program may explore different
	// prefixes — cancelled results must never enter options-keyed caches.
	Cancelled bool
	// MaxFrontier is the peak size of the BFS frontier (memory proxy).
	MaxFrontier int
	// Graph is the explicit configuration graph (nil unless KeepGraph).
	Graph *Graph
}

// Explore runs prog to exhaustion under opts.
func Explore(prog *lang.Program, opts Options) *Result {
	return ExploreContext(context.Background(), prog, opts)
}

// ExploreContext is Explore under a context: cancelling ctx stops the
// exploration at the next configuration boundary and returns a partial
// result with Result.Cancelled set. The cut takes the exact shape of the
// MaxConfigs truncation cut — in-flight parallel expansions drain before
// ExploreContext returns (no callback or worker touches the result
// afterwards), and every artifact is coherent for the explored prefix.
func ExploreContext(ctx context.Context, prog *lang.Program, opts Options) *Result {
	c0 := sem.NewConfig(prog)
	if opts.Granularity != sem.GranRef {
		c0 = c0.SetGranularity(opts.Granularity)
	}
	return ExploreFromContext(ctx, c0, opts)
}

// ExploreFrom runs from a prepared initial configuration.
func ExploreFrom(c0 *sem.Config, opts Options) *Result {
	return ExploreFromContext(context.Background(), c0, opts)
}

// ExploreFromContext is ExploreFrom under a context (see ExploreContext
// for the cancellation contract).
func ExploreFromContext(ctx context.Context, c0 *sem.Config, opts Options) *Result {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.MaxConfigs <= 0 {
		opts.MaxConfigs = 1 << 20
	}
	if opts.Workers > 1 || opts.Workers < 0 {
		return exploreDep(ctx, c0, opts)
	}
	// done is nil for a never-cancellable context, keeping the hot loop's
	// cancellation probe a single nil check.
	done := ctx.Done()
	m := opts.Metrics
	defer m.Phase("explore")()
	var sm *sem.Summaries
	if opts.Reduction == Stubborn {
		sm = sem.NewSummaries(c0.Prog)
	}
	res := &Result{Terminals: map[sem.Key]*sem.Config{}}
	if opts.KeepGraph {
		res.Graph = &Graph{Nodes: map[sem.Key]*Node{}}
	}
	ky := newKeyer(opts)
	vis := newVisited(ky.exact)
	defer recordVisitedStats(m, vis)()

	queue := make([]item, 0, 64)
	head := 0
	if ky.exact {
		k0 := ky.keyOf(c0)
		vis.addKey(k0)
		queue = append(queue, item{c0, k0})
		if res.Graph != nil {
			res.Graph.Nodes[k0] = &Node{Key: k0, Index: 0}
			res.Graph.Order = append(res.Graph.Order, k0)
		}
	} else {
		vis.addFP(ky.fpOf(c0))
		queue = append(queue, item{cfg: c0})
	}
	res.States = 1
	m.Inc(metrics.StatesUnique)

	// The FIFO queue visits configurations in BFS-level order, so level
	// boundaries fall where the countdown of the current wave hits zero.
	levelRemaining := len(queue)
	m.BeginLevel(len(queue))
	for head < len(queue) {
		if done != nil {
			select {
			case <-done:
				// Cancelled: cut exactly like MaxConfigs truncation — the
				// artifacts already collected describe the explored prefix.
				res.Cancelled = true
				m.EndLevel()
				return res
			default:
			}
		}
		if levelRemaining == 0 {
			m.EndLevel()
			levelRemaining = len(queue) - head
			m.BeginLevel(levelRemaining)
		}
		levelRemaining--
		if size := len(queue) - head; size > res.MaxFrontier {
			res.MaxFrontier = size
		}
		// Pop through a head index, zeroing the vacated slot: walking the
		// slice with queue = queue[1:] would pin every popped *sem.Config
		// (and key) in the backing array until exploration ends. Once the
		// dead prefix dominates a large queue, compact the live tail to
		// the front so append can reuse the space.
		cur := queue[head]
		queue[head] = item{}
		head++
		if head >= 1024 && head*2 >= len(queue) {
			n := copy(queue, queue[head:])
			stale := queue[n:]
			for i := range stale {
				stale[i] = item{}
			}
			queue = queue[:n]
			head = 0
		}

		enabled := cur.cfg.Enabled()
		if len(enabled) == 0 {
			tk := cur.key
			if !ky.exact {
				tk = ky.keyOf(cur.cfg)
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
			continue
		}

		if opts.Sink != nil {
			reportCoEnabled(cur.cfg, enabled, opts.Sink)
		}

		expand := enabled
		if opts.Reduction == Stubborn {
			expand = stubbornSet(cur.cfg, enabled, sm)
			countStubbornDecision(m, len(expand), len(enabled))
		}

		// A coarsened run may only absorb a critical action beyond its
		// first step under FULL expansion: with stubborn sets the fired
		// transition must stay within the access set the stubborn check
		// vetted (the first action), or interleavings are lost.
		absorbLateCritical := opts.Reduction == Full

		for _, pi := range expand {
			step, absorbed := fire(cur.cfg, pi, opts, absorbLateCritical)
			res.Edges++
			m.Inc(metrics.TransitionsFired)
			m.Inc(metrics.StatesGenerated)
			m.Add(metrics.CoarsenedSteps, int64(absorbed))
			if opts.Sink != nil {
				opts.Sink.Transition(step)
			}
			if opts.CollectEvents {
				res.Events = append(res.Events, step.Events...)
				res.Allocs = append(res.Allocs, step.Allocs...)
			}
			var k sem.Key
			var fresh bool
			if ky.exact {
				k = ky.keyOf(step.Config)
				fresh = vis.addKey(k)
			} else {
				fresh = vis.addFP(ky.fpOf(step.Config))
			}
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
					m.EndLevel()
					return res
				}
				queue = append(queue, item{step.Config, k})
			} else {
				m.Inc(metrics.DedupHits)
			}
		}
	}
	m.EndLevel()
	return res
}

// countStubbornDecision classifies the outcome of one stubborn-set
// computation at an expansion step with more than one enabled process:
// a singleton set (best case), a proper subset, or full fallback.
func countStubbornDecision(m *metrics.Registry, expanded, enabled int) {
	if m == nil || enabled <= 1 {
		return
	}
	switch {
	case expanded == 1:
		m.Inc(metrics.StubbornSingleton)
	case expanded == enabled:
		m.Inc(metrics.StubbornFullFallback)
	default:
		m.Inc(metrics.StubbornPartial)
	}
}

// item is one frontier entry: the configuration plus, in exact-key mode,
// its canonical key (empty in fingerprint mode — identity was already
// checked when the item was enqueued, and terminal keys are computed
// lazily).
type item struct {
	cfg *sem.Config
	key sem.Key
}

// keyer selects a run's state-identity mode: exact canonical keys
// (required whenever the configuration graph is kept, since nodes are
// addressed by key) or 128-bit fingerprints of the same encoding; either
// composes with the no-canon ablation.
type keyer struct {
	exact bool
	keyOf func(*sem.Config) sem.Key
	fpOf  func(*sem.Config) sem.Fingerprint
}

func newKeyer(opts Options) keyer {
	k := keyer{exact: opts.ExactKeys || opts.KeepGraph}
	if opts.NoCanonKeys {
		k.keyOf = (*sem.Config).EncodeNoCanon
		k.fpOf = (*sem.Config).FingerprintNoCanon
	} else {
		k.keyOf = (*sem.Config).Encode
		k.fpOf = (*sem.Config).Fingerprint
	}
	return k
}

// visited is the dedup set behind both explorers, in either key mode.
// It is only ever touched from serial code (the sequential loop or the
// parallel explorer's serial own chain), so it needs no locking.
type visited struct {
	keys     map[sem.Key]bool
	keyBytes int64
	fps      *fpSet
}

// visitedKeyOverhead approximates the exact map's per-entry bookkeeping
// beyond the key bytes themselves (string header plus bucket slot), for
// the visited_bytes gauge.
const visitedKeyOverhead = 48

func newVisited(exact bool) *visited {
	if exact {
		return &visited{keys: map[sem.Key]bool{}}
	}
	return &visited{fps: &fpSet{}}
}

// addKey / addFP insert a state identity and report whether it was new.
func (v *visited) addKey(k sem.Key) bool {
	if v.keys[k] {
		return false
	}
	v.keys[k] = true
	v.keyBytes += int64(len(k)) + visitedKeyOverhead
	return true
}

func (v *visited) addFP(fp sem.Fingerprint) bool { return v.fps.add(fp) }

// bytes is the memory the visited set retains.
func (v *visited) bytes() int64 {
	if v.keys != nil {
		return v.keyBytes
	}
	return v.fps.bytes()
}

// recordVisitedStats snapshots the encoder pool when a run starts and
// returns the closure that records the run's visited-set size and pool
// traffic when it ends (deferred, so truncation paths report too).
func recordVisitedStats(m *metrics.Registry, vis *visited) func() {
	if m == nil {
		return func() {}
	}
	g0, mi0 := sem.EncoderPoolStats()
	return func() {
		m.SetGauge(metrics.VisitedBytes, vis.bytes())
		g1, mi1 := sem.EncoderPoolStats()
		miss := mi1 - mi0
		if hit := (g1 - g0) - miss; hit > 0 {
			m.Add(metrics.EncPoolHit, hit)
		}
		m.Add(metrics.EncPoolMiss, miss)
	}
}

// fire executes one (possibly coarsened) transition of process pi and
// reports how many extra micro-steps the run absorbed. The count is
// returned rather than recorded so each explorer can credit it in its
// own (serial, deterministic) accounting loop.
func fire(c *sem.Config, pi int, opts Options, absorbLateCritical bool) (*sem.StepResult, int) {
	// Nothing downstream reads the per-access event stream unless a sink
	// or event collection asked for it, so skip materializing it (the
	// per-step Event/AllocEvent allocations) on the common path.
	quiet := opts.Sink == nil && !opts.CollectEvents
	budget := 0
	if absorbLateCritical && !c.AccessCritical(c.NextAccess(pi)) {
		budget = 1
	}
	absorbed := 0
	step := stepOnce(c, pi, quiet)
	if !opts.Coarsen {
		return step, absorbed
	}
	// Virtual coarsening: keep extending the run while the same process
	// is enabled, absorbing any number of non-critical actions and at
	// most one critical reference in total (Observation 5). Non-critical
	// actions are invisible to other threads (both-movers); the single
	// critical action is the block's linearization point.
	const maxRun = 1024
	path := step.Proc
	for n := 0; n < maxRun; n++ {
		nc := step.Config
		if nc.Err != "" {
			return step, absorbed
		}
		// The stepped process almost always keeps its index (only its own
		// completion changes the sorted Procs slice mid-run), so check the
		// hint before falling back to binary search by path.
		pj := pi
		if pj >= len(nc.Procs) || nc.Procs[pj].Path != path {
			pj = nc.ProcIndex(path)
		}
		if pj < 0 {
			return step, absorbed // process finished (join)
		}
		if !nc.ProcEnabled(pj) {
			return step, absorbed
		}
		// Fork boundaries stay visible: a cobegin creates processes, so
		// stop the run before it.
		if s := nc.NextStmt(pj); s != nil {
			if _, isFork := s.(*lang.CobeginStmt); isFork {
				return step, absorbed
			}
		}
		acc := nc.NextAccess(pj)
		if nc.AccessCritical(acc) {
			if budget == 0 {
				return step, absorbed
			}
			budget--
		}
		next := stepOnce(nc, pj, quiet)
		absorbed++
		step = &sem.StepResult{
			Config: next.Config,
			Events: append(step.Events, next.Events...),
			Allocs: append(step.Allocs, next.Allocs...),
			Stmt:   step.Stmt,
			Proc:   path,
		}
	}
	return step, absorbed
}

func stepOnce(c *sem.Config, pi int, quiet bool) *sem.StepResult {
	if quiet {
		return c.StepQuiet(pi)
	}
	return c.Step(pi)
}

// reportCoEnabled reports conflicting co-enabled action pairs to the sink.
func reportCoEnabled(c *sem.Config, enabled []int, sink Sink) {
	accs := make([]sem.AccessSet, len(enabled))
	for k, pi := range enabled {
		accs[k] = c.NextAccess(pi)
	}
	for a := 0; a < len(enabled); a++ {
		for b := a + 1; b < len(enabled); b++ {
			loc, ww, ok := accessConflict(accs[a], accs[b])
			if !ok {
				continue
			}
			sink.CoEnabled(c, c.NextActionID(enabled[a]), c.NextActionID(enabled[b]), loc, ww)
		}
	}
}

// accessConflict finds a conflicting location between two access sets:
// write/write or read/write overlap. Phantom heap cells (negative base)
// never conflict.
func accessConflict(a, b sem.AccessSet) (sem.Loc, bool, bool) {
	real := func(l sem.Loc) bool { return l.Space != sem.SpaceHeap || l.Base >= 0 }
	for _, wa := range a.Writes {
		if !real(wa) {
			continue
		}
		for _, wb := range b.Writes {
			if wa == wb {
				return wa, true, true
			}
		}
		for _, rb := range b.Reads {
			if wa == rb {
				return wa, false, true
			}
		}
	}
	for _, wb := range b.Writes {
		if !real(wb) {
			continue
		}
		for _, ra := range a.Reads {
			if wb == ra {
				return wb, false, true
			}
		}
	}
	return sem.Loc{}, false, false
}

// OutcomeSet projects the terminal (non-error) configurations onto the
// named globals, returning the sorted set of value tuples — the
// "result-configurations" the paper's examples enumerate (e.g. the legal
// (x,y) values of Figure 2).
func (r *Result) OutcomeSet(names ...string) [][]int64 {
	seen := map[string][]int64{}
	kb := make([]byte, 0, 8*len(names))
	for _, c := range r.Terminals {
		if c.Err != "" {
			continue
		}
		tuple := make([]int64, len(names))
		kb = kb[:0]
		for i, n := range names {
			v, ok := c.GlobalByName(n)
			if ok && v.Kind == sem.KindInt {
				tuple[i] = v.N
			}
			// Sign-flipped big-endian cells make the byte order of keys
			// coincide with numeric tuple order, so sorting the keys
			// sorts the tuples; string(kb) in the lookup below does not
			// allocate, unlike the fmt.Sprint key this replaces.
			kb = binary.BigEndian.AppendUint64(kb, uint64(tuple[i])^(1<<63))
		}
		if _, ok := seen[string(kb)]; !ok {
			seen[string(kb)] = tuple
		}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([][]int64, len(keys))
	for i, k := range keys {
		out[i] = seen[k]
	}
	return out
}

// TerminalStoreSet returns the sorted set of canonical terminal keys; two
// explorations are result-equivalent iff these sets match. Canonical keys
// rename heap addresses, so explorations that allocate in different orders
// still compare equal; at a terminal configuration the control component
// is trivial, so the key is effectively the store.
func (r *Result) TerminalStoreSet() []string {
	set := map[string]bool{}
	for _, c := range r.Terminals {
		if c.Err != "" {
			set["ERR:"+c.Err] = true
			continue
		}
		set[string(c.Encode())] = true
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// String renders a one-line summary.
func (r *Result) String() string {
	return fmt.Sprintf("states=%d edges=%d terminals=%d errors=%d truncated=%v",
		r.States, r.Edges, len(r.Terminals), len(r.Errors), r.Truncated)
}
