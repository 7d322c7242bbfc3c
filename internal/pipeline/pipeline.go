// Package pipeline is the composable analysis layer between the public
// facade (internal/core) and the framework's two engines: the concrete
// explorer (internal/explore) and the abstract fixpoint engine
// (internal/abssem).
//
// The paper's point (§5) is that side effects, dependences, lifetimes,
// and anomalies are all properties read off ONE traversed state space —
// so the expensive thing, the traversal, should happen once and feed
// every consumer. Two pieces make that composable:
//
//   - MultiSink fans one exploration's instrumentation stream out to any
//     number of explore.Sinks, each bracketed by its own metrics phase,
//     with the guarantee that the fused run is bit-identical to running
//     each sink in its own traversal (the explorer's sink stream is
//     deterministic at any worker count, and MultiSink adds no
//     reordering — pinned by TestMultiSinkBitIdentical);
//   - RunOptions is the one option struct consumers configure, mapping
//     onto both engines' native options (ExploreOptions /
//     AbstractOptions) so worker pools, reductions, caps, and metrics
//     thread through every layer instead of being rebuilt per call site.
//
// RunOptions.Key and AbstractKey give the canonical cache keys the
// core.Analyzer result caches use: they cover exactly the fields that can
// change results and exclude the execution-only fields (Workers, Pool,
// Metrics) that the engines' determinism contract guarantees never do.
//
// # Key stability contract
//
// The strings Key and AbstractKey return are STABLE ACROSS RELEASES:
// callers persist them (the service's completed-result cache, saved
// experiment manifests) and compare them across process generations, so
// the rendering of the existing fields must never change. Extending
// either key for a new result-relevant option must append a new
// "name=value" field whose zero value reproduces today's semantics —
// never rename, reorder, or re-encode the fields already present.
// TestKeyGolden pins the exact strings; a failing golden test means a
// breaking cache-key change, not a test to update casually.
//
// For incremental re-analysis of edited program versions, Incremental
// (see incremental.go) replays the previous result when a resubmission
// is α-equivalent and runs the plain fixpoint otherwise;
// core.Analyzer.AnalyzeEdit builds on it.
package pipeline

import (
	"context"
	"fmt"
	"time"

	"psa/internal/abssem"
	"psa/internal/explore"
	"psa/internal/lang"
	"psa/internal/metrics"
	"psa/internal/sched"
	"psa/internal/sem"
)

// RunOptions is the unified analysis-run configuration: the subset of
// engine options every layer of the stack (core facade, applications,
// experiment harness, CLIs) needs to agree on. Engine-specific knobs
// (granularity, graph retention, domains, k-limits) stay on the engine
// option structs; derive them via ExploreOptions/AbstractOptions and set
// the extras on the result.
//
// The zero value is the historical default: full reduction, one
// goroutine, default caps, fingerprinted visited set, no
// instrumentation.
type RunOptions struct {
	// Reduction selects full or stubborn-set expansion for concrete
	// exploration (default Full).
	Reduction explore.Reduction
	// Coarsen enables virtual coarsening of non-critical runs.
	Coarsen bool
	// Workers is the number of goroutines both engines run their
	// executor on: 0 or 1 runs it inline on the caller's goroutine, a
	// negative count uses GOMAXPROCS. Results and deterministic counters
	// are identical at any count.
	Workers int
	// Sched is ignored. Each engine has exactly one parallel executor
	// (the explorer the dependency-driven pipeline, the abstract engine
	// leveled rounds — DESIGN.md §7), so there is nothing to select; the
	// field stays only so existing callers keep compiling.
	Sched sched.Scheduler
	// Pool is the shared scheduler pool multi-worker runs execute on;
	// the caller keeps ownership. Nil lets each such run spin a private
	// pool sized by Workers. Ignored when Workers is 0 or 1.
	Pool *sched.Pool
	// MaxConfigs caps distinct configurations: explore.Options.MaxConfigs
	// for concrete runs, abssem.Options.MaxStates for abstract ones
	// (0 selects each engine's default).
	MaxConfigs int
	// ExactKeys stores full canonical keys in the concrete visited set
	// instead of 128-bit fingerprints. No abstract-engine counterpart.
	ExactKeys bool
	// Metrics receives counters, per-level stats, and phase timings from
	// every run derived from these options. Nil disables instrumentation.
	Metrics *metrics.Registry
}

// ExploreOptions maps the shared configuration onto the concrete
// explorer's options.
func (o RunOptions) ExploreOptions() explore.Options {
	return explore.Options{
		Reduction:  o.Reduction,
		Coarsen:    o.Coarsen,
		Workers:    o.Workers,
		Pool:       o.Pool,
		MaxConfigs: o.MaxConfigs,
		ExactKeys:  o.ExactKeys,
		Metrics:    o.Metrics,
	}
}

// AbstractOptions maps the shared configuration onto the abstract
// interpreter's options: the cap becomes MaxStates; Reduction, Coarsen,
// and ExactKeys have no abstract counterpart (the fixpoint engine owns
// its own folding).
func (o RunOptions) AbstractOptions() abssem.Options {
	return abssem.Options{
		Workers:   o.Workers,
		Pool:      o.Pool,
		MaxStates: o.MaxConfigs,
		Metrics:   o.Metrics,
	}
}

// Strategy returns a copy with the concrete reduction settings replaced —
// the per-call-site override experiment sweeps use while inheriting
// workers, pool, caps, key mode, and metrics from the threaded options.
func (o RunOptions) Strategy(red explore.Reduction, coarsen bool) RunOptions {
	o.Reduction = red
	o.Coarsen = coarsen
	return o
}

// Key is the canonical cache key of a concrete run under these options:
// it covers every field that can change an exploration's results and
// excludes Workers, Sched, Pool, and Metrics, which the explorer's
// determinism contract guarantees never do. Two RunOptions with equal
// keys may share one traversal's derived analyses.
func (o RunOptions) Key() string {
	return fmt.Sprintf("red=%d coarsen=%t max=%d exact=%t",
		o.Reduction, o.Coarsen, o.MaxConfigs, o.ExactKeys)
}

// AbstractKey is the canonical cache key of an abstract run: the
// normalized result-relevant fields of abssem.Options, excluding the
// execution-only Workers/Pool/Metrics (bit-identical at any worker
// count by the engine's contract). Options that normalize equal — e.g.
// KBirth 0 and KBirth 2 — share one key, fixing the historical cache
// collision where Abstract() cached defaults forever while AbstractWith
// never cached at all.
func AbstractKey(o abssem.Options) string {
	n := o.Normalized()
	return fmt.Sprintf("dom=%s k=%d rec=%d clan=%t max=%d widen=%d foot=%t",
		n.Domain.Name(), n.KBirth, n.RecLimit, n.ClanFold, n.MaxStates, n.WidenAfter, n.CollectFootprints)
}

// MultiSink fans one traversal's instrumentation out to several sinks in
// registration order. It implements explore.Sink; feed it to one
// explore.Explore call in place of N separate explorations.
//
// Determinism: the explorer delivers sink callbacks from serial code (its
// merge chain) in an order that is itself bit-identical at any worker
// count, and MultiSink forwards each callback to every sink
// synchronously, in order. Each sink therefore observes exactly the
// stream it would have observed as the sole sink of its own traversal.
//
// Metrics: when a registry is attached, each sink's callback time
// accumulates locally and flushes as its own phase ("sink:<name>") on
// Flush, together with the pipeline_fused_sinks counter — per-bracket
// lock traffic would otherwise dominate hot explorations.
type MultiSink struct {
	m     *metrics.Registry
	names []string
	sinks []explore.Sink
	nanos []int64
	calls []int64
}

// NewMultiSink builds an empty compositor reporting to m (nil disables
// per-sink instrumentation).
func NewMultiSink(m *metrics.Registry) *MultiSink {
	return &MultiSink{m: m}
}

// Add registers a named sink and returns the compositor for chaining.
// Nil sinks are ignored so callers can pass optional consumers straight
// through.
func (ms *MultiSink) Add(name string, s explore.Sink) *MultiSink {
	if s == nil {
		return ms
	}
	ms.names = append(ms.names, name)
	ms.sinks = append(ms.sinks, s)
	ms.nanos = append(ms.nanos, 0)
	ms.calls = append(ms.calls, 0)
	return ms
}

// Len reports the number of registered sinks.
func (ms *MultiSink) Len() int { return len(ms.sinks) }

// Transition implements explore.Sink.
func (ms *MultiSink) Transition(res *sem.StepResult) {
	if ms.m == nil {
		for _, s := range ms.sinks {
			s.Transition(res)
		}
		return
	}
	for i, s := range ms.sinks {
		t0 := time.Now()
		s.Transition(res)
		ms.nanos[i] += time.Since(t0).Nanoseconds()
		ms.calls[i]++
	}
}

// CoEnabled implements explore.Sink.
func (ms *MultiSink) CoEnabled(c *sem.Config, stmtA, stmtB lang.NodeID, loc sem.Loc, writeWrite bool) {
	if ms.m == nil {
		for _, s := range ms.sinks {
			s.CoEnabled(c, stmtA, stmtB, loc, writeWrite)
		}
		return
	}
	for i, s := range ms.sinks {
		t0 := time.Now()
		s.CoEnabled(c, stmtA, stmtB, loc, writeWrite)
		ms.nanos[i] += time.Since(t0).Nanoseconds()
		ms.calls[i]++
	}
}

// Flush records the accumulated per-sink phases ("sink:<name>") and the
// pipeline_fused_sinks counter on the registry, then resets the local
// accumulators so a compositor may be reused for another traversal.
// No-op without a registry.
func (ms *MultiSink) Flush() {
	if ms.m == nil {
		return
	}
	ms.m.Add(metrics.PipelineFusedSinks, int64(len(ms.sinks)))
	for i, name := range ms.names {
		if ms.calls[i] > 0 {
			ms.m.RecordPhase("sink:"+name, ms.nanos[i], ms.calls[i])
		}
		ms.nanos[i], ms.calls[i] = 0, 0
	}
}

// Explore runs one concrete traversal of prog under the shared options,
// fanning instrumentation out to the given sinks (nil entries skipped).
// It is the pipeline's "one traversal, many analyses" entry point: the
// fused run's result and every sink's observed stream are bit-identical
// to dedicated runs per sink.
func Explore(prog *lang.Program, ro RunOptions, sinks ...NamedSink) *explore.Result {
	return ExploreContext(context.Background(), prog, ro, sinks...)
}

// ExploreContext is Explore under a context: cancelling ctx stops the
// traversal at the engine's next merge boundary and returns a partial
// result with Cancelled set (see explore.ExploreContext). Sinks are
// flushed either way, so a cancelled run's per-sink phases cover
// exactly the merged prefix. Cancelled results carry a timing-dependent
// cut and must never enter options-keyed caches.
func ExploreContext(ctx context.Context, prog *lang.Program, ro RunOptions, sinks ...NamedSink) *explore.Result {
	ms := NewMultiSink(ro.Metrics)
	for _, ns := range sinks {
		ms.Add(ns.Name, ns.Sink)
	}
	eo := ro.ExploreOptions()
	if ms.Len() > 0 {
		eo.Sink = ms
	}
	res := explore.ExploreContext(ctx, prog, eo)
	ms.Flush()
	return res
}

// NamedSink pairs a sink with the phase name its callback time reports
// under.
type NamedSink struct {
	Name string
	Sink explore.Sink
}

// Analyze runs the abstract engine on prog under the shared options —
// the abstract-side counterpart of Explore, so differential clients (the
// soak harness in particular) configure both engines from one RunOptions
// value. Engine-specific knobs (domain, k-limits, clan folding) can be
// set on the derived options via the extra parameter; nil keeps the
// defaults.
func Analyze(prog *lang.Program, ro RunOptions, adjust func(*abssem.Options)) *abssem.Result {
	return AnalyzeContext(context.Background(), prog, ro, adjust)
}

// AnalyzeContext is Analyze under a context: cancelling ctx stops the
// fixpoint at the engine's next worklist boundary and returns a partial
// result with Cancelled set (see abssem.AnalyzeContext). Cancelled
// results carry a timing-dependent cut and must never enter
// options-keyed caches.
func AnalyzeContext(ctx context.Context, prog *lang.Program, ro RunOptions, adjust func(*abssem.Options)) *abssem.Result {
	ao := ro.AbstractOptions()
	if adjust != nil {
		adjust(&ao)
	}
	return abssem.AnalyzeContext(ctx, prog, ao)
}
