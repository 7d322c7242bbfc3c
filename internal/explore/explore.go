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
// bound below 1. New limit fields with a meaningful 0 must follow
// abssem's convention: 0 defaults, negative requests the boundary 0.
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
	// Pool is the scheduler pool (internal/sched) the exploration runs
	// on, and the only execution setting: nil runs the dependency-driven
	// pipeline (dep.go) inline on the caller's goroutine, a non-nil pool
	// runs it on that pool's workers. The caller keeps ownership (the
	// explorer never closes it), and consecutive Explore/Analyze calls
	// may share it. Counts, result sets, discovery parents, MaxFrontier,
	// per-level stats, and the sink event stream are identical on every
	// pool.
	Pool *sched.Pool
	// Sink, when non-nil, receives instrumentation callbacks during
	// exploration: per-edge access and allocation events and co-enabled
	// conflicts. Without a sink the explorer steps quietly and builds
	// no events at all.
	Sink Sink
	// Metrics, when non-nil, receives counters, gauges, per-level stats,
	// and phase timings during exploration (states generated/deduped,
	// frontier widths, stubborn-set decisions, coarsened steps). Nil
	// disables instrumentation; the fast path is a single nil check, and
	// enabling it never perturbs counts or the deterministic sink order.
	Metrics *metrics.Registry
}

// Sink receives instrumentation during exploration. Implementations live
// in package analysis. Callbacks arrive from the serial merge in
// sequential order, identical at every worker count.
type Sink interface {
	// Transition is called once per explored edge with its step result:
	// Events, Allocs, Stmt and Proc always; Config only when the edge
	// discovers a new configuration, nil for an edge into an
	// already-discovered one (the explorer does not build those). res
	// is reused across calls, so a sink must not retain it.
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
	// Truncated reports that MaxConfigs was hit; counts are lower bounds
	// and Terminals may be incomplete.
	Truncated bool
	// Cancelled reports that the run's context was cancelled before the
	// exploration finished (see ExploreContext). A cancelled result obeys
	// the same artifact-coherence contract as a truncated one: counts,
	// Terminals, Errors, the sink stream, and the Graph all describe
	// exactly the explored prefix. Unlike Truncated, the cut point
	// depends on timing, so two cancelled runs of the same program may
	// explore different prefixes — cancelled results must never enter
	// options-keyed caches.
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
	return exploreDep(ctx, c0, opts)
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

// visited is the explorer's claim table (see exploreDep), in either key
// mode: an exact keySet or a fingerprint fpSet. Expanding workers claim
// concurrently; the merge reads owners.
type visited struct {
	keys *keySet
	fps  *fpSet
}

func newVisited(exact bool) *visited {
	if exact {
		return &visited{keys: &keySet{}}
	}
	return &visited{fps: &fpSet{}}
}

// claim records id as a claim on the state identified by k (exact mode)
// or fp (fingerprint mode), and reports whether id is now its smallest
// claim.
func (v *visited) claim(k sem.Key, fp sem.Fingerprint, id uint64) bool {
	if v.keys != nil {
		return v.keys.claim(k, id)
	}
	return v.fps.claim(fp, id)
}

// owner returns the smallest claim on a claimed state.
func (v *visited) owner(k sem.Key, fp sem.Fingerprint) uint64 {
	if v.keys != nil {
		return v.keys.owner(k)
	}
	return v.fps.owner(fp)
}

// bytes is the memory the visited set retains.
func (v *visited) bytes() int64 {
	if v.keys != nil {
		return v.keys.bytes()
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

// fire executes one (possibly coarsened) transition of process pi into
// the scratch and reports how many extra micro-steps the run absorbed.
// The result's Config is the scratch's (see sem.Scratch); the count is
// returned rather than recorded so the serial merge can credit it in
// deterministic order.
func fire(c *sem.Config, pi int, opts Options, absorbLateCritical bool, sc *sem.Scratch) (sem.StepResult, int) {
	quiet := !withEvents(opts)
	if !opts.Coarsen {
		return *sc.Step(c, pi, quiet), 0
	}
	budget := 0
	if absorbLateCritical && !c.AccessCritical(c.NextAccess(pi)) {
		budget = 1
	}
	absorbed := 0
	step := *sc.Step(c, pi, quiet)
	// Virtual coarsening: keep extending the run while the same process
	// is enabled, absorbing any number of non-critical actions and at
	// most one critical reference in total (Observation 5). Non-critical
	// actions are invisible to other threads (both-movers); the single
	// critical action is the block's linearization point. Each micro-step
	// continues in place in the scratch.
	const maxRun = 1024
	path := step.Proc
	nc := step.Config
	for n := 0; n < maxRun; n++ {
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
		next := sc.Step(nc, pj, quiet)
		absorbed++
		step.Events = append(step.Events, next.Events...)
		step.Allocs = append(step.Allocs, next.Allocs...)
	}
	return step, absorbed
}

// withEvents reports whether anything reads the per-access event stream:
// only a sink does. Otherwise the explorer steps quietly and skips
// materializing it (the per-step Event/AllocEvent allocations).
func withEvents(opts Options) bool { return opts.Sink != nil }

// coEnabledConflicts finds the conflicting co-enabled action pairs of c,
// in the order the sink receives them.
func coEnabledConflicts(c *sem.Config, enabled []int) []conflict {
	var out []conflict
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
			out = append(out, conflict{c.NextActionID(enabled[a]), c.NextActionID(enabled[b]), loc, ww})
		}
	}
	return out
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
