// Package psa reproduces Chow & Harrison, "A General Framework for
// Analyzing Shared-Memory Parallel Programs" (ICPP 1992): a compile-time
// analysis framework for cobegin programs with shared memory, built on
// state-space exploration with stubborn-set reduction and virtual
// coarsening, and on abstract interpretation with configuration and clan
// folding. The derived analyses — side effects, data dependences, object
// lifetimes — drive the paper's applications: call parallelization,
// memory-hierarchy placement, and optimization-safety checks.
//
// The implementation lives under internal/ (see DESIGN.md for the system
// inventory); cmd/psa, cmd/explore, cmd/paperbench and cmd/psasoak are
// the command-line tools, and cmd/psad serves the same analyses as a
// long-lived HTTP/JSON daemon (internal/service: one process-wide
// worker pool, identical in-flight requests coalesced onto one engine
// run, results held in the pipeline's content-addressed cache —
// DESIGN.md §11);
// bench_test.go regenerates every figure and table of the paper's
// evaluation (see EXPERIMENTS.md).
//
// Both engines are deterministically parallel on one shared runtime,
// internal/sched: a persistent worker pool (explore/abssem
// Options.Workers size a private one; Options.Pool shares one across
// engine calls, as the CLIs do) fans expensive per-state work out while
// a serial in-order merge owns all order-sensitive bookkeeping — dedup
// and frontier order in the explorer; joins, widening decisions, and
// worklist order in the abstract interpreter — so every result and
// every deterministic metric is bit-identical at any worker count
// (differential tests pin this under the race detector). Both engines
// run on one executor (DESIGN.md §7), a dependency-driven pipeline that
// merges each task as soon as its predecessors in sequential discovery
// order have merged, with no level barrier. Both engines accept a context
// (explore.ExploreContext, abssem.AnalyzeContext, or
// core.Analyzer.WithContext): cancellation stops the run at its next
// merge boundary and returns a coherent partial result flagged
// Cancelled — the same cut shape as MaxConfigs/MaxStates truncation,
// except never cached, since the cut point is timing-dependent.
//
// Engine results live in one bounded cache, pipeline.Cache, which
// cmd/psad and core.Analyzer share the code of. Abstract results are
// keyed by the canonical whole-program hash (internal/lang) plus the
// result-relevant options, so an α-equivalent resubmission (rename,
// label edit, reformatting) is answered without re-running the
// fixpoint; explore results are keyed by the exact source text. A hit
// replays the stored run's deterministic counters, so results and
// metrics are bit-identical to a from-scratch run at any worker count
// (DESIGN.md §8, §13).
//
// The engines are instrumented through internal/metrics, a nil-safe
// registry of atomic counters, per-level statistics, and phase timings
// that costs nothing when disabled. The tools expose it via -metrics /
// -metrics-json / -progress (and, on cmd/explore, -pprof and -trace);
// cmd/paperbench embeds the same counters in its machine-readable
// report and exits non-zero if any workload diverges from the recorded
// paper expectations. CI (.github/workflows/ci.yml, mirrored by `make
// ci`) gates every change on the full suite, the race detector, a bench
// smoke run, and a fixed-seed differential soak: cmd/psasoak feeds
// internal/progen's randomly generated programs through four
// cross-checking oracles (abstract covers concrete, reduced equals
// full, parallel equals sequential, fingerprints equal exact keys) and
// shrinks any divergence to a minimal reproducer — plus a fifth,
// edit-sequence oracle (psasoak -edits) pinning incremental
// re-analysis against scratch over random progen.Mutate edit chains;
// an open-ended nightly soak (.github/workflows/soak.yml) does the
// same on fresh seeds (DESIGN.md §10).
package psa

// Version identifies the reproduction release.
const Version = "1.0.0"
