// Package metrics is the observability layer of the framework: a
// lightweight, allocation-conscious registry of atomic counters, gauges,
// latency histograms, per-BFS-level statistics, and per-phase wall-clock
// timings, threaded through the concrete explorer (package explore) and
// the abstract interpreter (package abssem).
//
// Design constraints (see DESIGN.md and the Astrée/parallel-fixpoint
// literature on instrumented analyzers):
//
//   - Zero cost when disabled. Every method is safe on a nil *Registry
//     and reduces to a single predictable branch, so the explorers thread
//     an optional registry through their hot loops without a wrapper
//     interface or indirect call.
//   - No perturbation. Counters are plain atomics; nothing in this
//     package takes locks on the per-transition path, so enabling metrics
//     cannot reorder the deterministic sink event stream the parallel
//     explorer guarantees (verified by differential tests in package
//     explore).
//   - Fixed slots. The hot-path counters and gauges are enumerated
//     constants indexing fixed arrays — no map lookups, no per-event
//     allocation.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter names one monotonically increasing event count.
type Counter uint8

// Hot-path event counters. StatesGenerated counts every successor
// configuration produced (including duplicates); DedupHits the subset
// that had already been visited; StatesUnique the distinct
// configurations discovered (including the initial one).
const (
	StatesUnique Counter = iota
	StatesGenerated
	DedupHits
	TransitionsFired
	TerminalsSeen
	ErrorsSeen
	// Stubborn-set decisions at expansion steps with >1 enabled process:
	// a singleton set (the preferred, maximally reducing outcome), a
	// proper subset, or a fallback to full expansion.
	StubbornSingleton
	StubbornPartial
	StubbornFullFallback
	// CoarsenedSteps counts micro-transitions absorbed into coarsened
	// runs (Observation 5) — steps the explorer did NOT pay a
	// configuration for.
	CoarsenedSteps
	// Abstract-interpreter events (package abssem).
	AbsVisits
	AbsJoins
	AbsWidenings
	AbsStates
	// Encoder-pool traffic during a run: checkouts served from the pool
	// vs. checkouts that allocated a fresh encoder. Perf-only — the split
	// depends on scheduling, so it is NOT part of the deterministic
	// counter set the differential tests compare.
	EncPoolHit
	EncPoolMiss
	// FrontierSteals belonged to the leveled parallel explorer, which no
	// longer exists: the explorer's dependency-driven executor has no
	// steal cursor, so nothing emits it and it always reads 0. It stays
	// defined (perf-only) because benchmark reports still read it.
	FrontierSteals
	// AbsSteals counts expansion grains the parallel abstract fixpoint
	// engine's workers claimed outside their home stride (dynamic load
	// balancing). Perf-only and scheduling-dependent.
	AbsSteals
	// AbsStaleRecomputes counts worklist entries the abstract engine had
	// to re-expand serially because a join earlier in the same round grew
	// their value state after the round snapshot. The count is a
	// deterministic property of the round structure at any worker count,
	// but a worklist that expands one entry at a time never recomputes,
	// so it stays outside the deterministic counter set.
	AbsStaleRecomputes
	// PipelineFusedSinks counts sinks fed from a shared traversal by a
	// pipeline.MultiSink (per fused run, one increment per sink beyond
	// the traversal itself being paid once). Perf-only: it measures how
	// much exploration the pipeline layer avoided, not explored-space
	// structure.
	PipelineFusedSinks
	// AnalysisCacheHit / AnalysisCacheMiss count lookups of the
	// pipeline result cache and of core.Analyzer's collector memo.
	// Perf-only: hits depend on call order, not on the explored space.
	AnalysisCacheHit
	AnalysisCacheMiss
	// DepMergeWaits counts the times the parallel explorer's dependency-
	// driven merger blocked on the head task's expansion (the pipelined
	// analogue of a level-barrier stall). Scheduling-dependent and
	// perf-only.
	DepMergeWaits
	// AbsDepMergeWaits belonged to the abstract engine's dependency-driven
	// loop, which no longer exists. Nothing emits it, so it always reads
	// 0; it stays defined (perf-only) because benchmark reports still
	// read it.
	AbsDepMergeWaits
	// SummaryHit / SummaryMiss / SummaryInvalidated belonged to the
	// procedure-summary cache the abstract engine no longer has. No code
	// emits them any more, so they always read 0; they stay defined
	// (perf-only) because benchmark reports still read them.
	SummaryHit
	SummaryMiss
	SummaryInvalidated
	// StatesBuilt counts the successors the explorer copied out of its
	// scratch storage: those whose state no earlier transition had
	// claimed at expansion. Run inline it equals StatesUnique minus the
	// initial configuration (plus, on a truncated run, successors the
	// last expansion built past the cut); with workers, claims arrive out
	// of order and some built successors turn out duplicates, so it is
	// perf-only.
	StatesBuilt
	numCounters
)

var counterNames = [numCounters]string{
	StatesUnique:         "states_unique",
	StatesGenerated:      "states_generated",
	DedupHits:            "dedup_hits",
	TransitionsFired:     "transitions_fired",
	TerminalsSeen:        "terminals_seen",
	ErrorsSeen:           "errors_seen",
	StubbornSingleton:    "stubborn_singleton",
	StubbornPartial:      "stubborn_partial",
	StubbornFullFallback: "stubborn_full_fallback",
	CoarsenedSteps:       "coarsened_steps",
	AbsVisits:            "abs_visits",
	AbsJoins:             "abs_joins",
	AbsWidenings:         "abs_widenings",
	AbsStates:            "abs_states",
	EncPoolHit:           "enc_pool_hit",
	EncPoolMiss:          "enc_pool_miss",
	FrontierSteals:       "frontier_steals",
	AbsSteals:            "abs_steals",
	AbsStaleRecomputes:   "abs_stale_recomputes",
	PipelineFusedSinks:   "pipeline_fused_sinks",
	AnalysisCacheHit:     "analysis_cache_hit",
	AnalysisCacheMiss:    "analysis_cache_miss",
	DepMergeWaits:        "dep_merge_waits",
	AbsDepMergeWaits:     "abs_dep_merge_waits",
	SummaryHit:           "summary_hit",
	SummaryMiss:          "summary_miss",
	SummaryInvalidated:   "summary_invalidated",
	StatesBuilt:          "states_built",
}

// PerfOnly reports whether the counter measures implementation effort
// (pool traffic, steals) rather than explored-space structure. Perf-only
// counters may legitimately differ across worker counts and key modes;
// determinism tests compare all others.
func (c Counter) PerfOnly() bool {
	switch c {
	case EncPoolHit, EncPoolMiss, FrontierSteals, AbsSteals, AbsStaleRecomputes,
		PipelineFusedSinks, AnalysisCacheHit, AnalysisCacheMiss,
		DepMergeWaits, AbsDepMergeWaits,
		SummaryHit, SummaryMiss, SummaryInvalidated, StatesBuilt:
		return true
	}
	return false
}

// EachCounter calls f for every defined counter in declaration order —
// the iteration callers outside this package use to snapshot or replay
// counter sets (e.g. the pipeline cache's deterministic-counter
// capture) without depending on the private counter bound.
func EachCounter(f func(Counter)) {
	for c := Counter(0); c < numCounters; c++ {
		f(c)
	}
}

// String returns the snake_case snapshot key of the counter.
func (c Counter) String() string {
	if int(c) < len(counterNames) {
		return counterNames[c]
	}
	return fmt.Sprintf("counter%d", c)
}

// Gauge names one instantaneous value.
type Gauge uint8

// Gauges. FrontierWidth is the size of the BFS frontier currently being
// expanded; Level the 0-based BFS level; MaxFrontier the peak frontier
// (memory proxy); QueueLen the abstract interpreter's worklist length.
const (
	FrontierWidth Gauge = iota
	Level
	MaxFrontier
	QueueLen
	// VisitedBytes is the memory retained by the explorer's visited set
	// at the end of a run: full key bytes in exact mode, fingerprint
	// table bytes in fingerprint mode.
	VisitedBytes
	// AbsFrontierWidth is the number of worklist entries the parallel
	// abstract fixpoint engine expanded in the current round; its peak
	// over a run is the abstract analogue of MaxFrontier.
	AbsFrontierWidth
	// DepReadyDepth records the peak published-but-unclaimed backlog the
	// parallel explorer's dependency-driven workers saw when claiming.
	// Scheduling-dependent, like every gauge outside the determinism
	// comparisons.
	DepReadyDepth
	numGauges
)

var gaugeNames = [numGauges]string{
	FrontierWidth:    "frontier_width",
	Level:            "level",
	MaxFrontier:      "max_frontier",
	QueueLen:         "queue_len",
	VisitedBytes:     "visited_bytes",
	AbsFrontierWidth: "abs_frontier_width",
	DepReadyDepth:    "dep_ready_depth",
}

// String returns the snake_case snapshot key of the gauge.
func (g Gauge) String() string {
	if int(g) < len(gaugeNames) {
		return gaugeNames[g]
	}
	return fmt.Sprintf("gauge%d", g)
}

// Registry accumulates one run's worth of instrumentation. The zero
// value is NOT ready for use — call New. A nil *Registry is the disabled
// registry: every method no-ops.
type Registry struct {
	counters [numCounters]atomic.Int64
	gauges   [numGauges]atomic.Int64

	start time.Time

	// Level bookkeeping: written only by the explorer's merge goroutine
	// (one BeginLevel/EndLevel pair per BFS level), read by Snapshot and
	// the progress sampler.
	mu         sync.Mutex
	levels     []LevelStat
	levelOpen  bool
	levelStart time.Time
	levelBase  [numCounters]int64

	levelHist Histogram // per-level wall-clock latencies

	phases     map[string]*phaseAcc
	phaseOrder []string
}

type phaseAcc struct {
	nanos int64
	count int64
}

// New returns an enabled registry with its clock started.
func New() *Registry {
	return &Registry{start: time.Now(), phases: map[string]*phaseAcc{}}
}

// Enabled reports whether the registry records anything.
func (r *Registry) Enabled() bool { return r != nil }

// Add increments a counter by n.
func (r *Registry) Add(c Counter, n int64) {
	if r == nil {
		return
	}
	r.counters[c].Add(n)
}

// Inc increments a counter by one.
func (r *Registry) Inc(c Counter) { r.Add(c, 1) }

// Get returns a counter's current value (0 on the nil registry).
func (r *Registry) Get(c Counter) int64 {
	if r == nil {
		return 0
	}
	return r.counters[c].Load()
}

// SetGauge stores an instantaneous value.
func (r *Registry) SetGauge(g Gauge, v int64) {
	if r == nil {
		return
	}
	r.gauges[g].Store(v)
}

// MaxGauge raises the gauge to v if v is larger.
func (r *Registry) MaxGauge(g Gauge, v int64) {
	if r == nil {
		return
	}
	for {
		old := r.gauges[g].Load()
		if v <= old || r.gauges[g].CompareAndSwap(old, v) {
			return
		}
	}
}

// Gauge returns a gauge's current value (0 on the nil registry).
func (r *Registry) Gauge(g Gauge) int64 {
	if r == nil {
		return 0
	}
	return r.gauges[g].Load()
}

// Elapsed is the time since New (0 on the nil registry).
func (r *Registry) Elapsed() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.start)
}

// --- Phases ---------------------------------------------------------------

// Phase starts timing a named phase and returns its stop function:
//
//	defer m.Phase("explore")()
//
// Phases may repeat; durations accumulate. Safe on nil (no-op stop).
func (r *Registry) Phase(name string) func() {
	if r == nil {
		return func() {}
	}
	start := time.Now()
	return func() { r.RecordPhase(name, time.Since(start).Nanoseconds(), 1) }
}

// RecordPhase adds pre-measured wall-clock to a named phase: nanos of
// accumulated time over count occurrences. It is the batch form of Phase
// for callers (e.g. the pipeline's MultiSink) that accumulate many short
// brackets locally and flush once, instead of taking the registry lock
// per bracket. Safe on nil.
func (r *Registry) RecordPhase(name string, nanos, count int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	acc := r.phases[name]
	if acc == nil {
		acc = &phaseAcc{}
		r.phases[name] = acc
		r.phaseOrder = append(r.phaseOrder, name)
	}
	acc.nanos += nanos
	acc.count += count
	r.mu.Unlock()
}

// --- Levels ---------------------------------------------------------------

// LevelStat summarizes one BFS level of an exploration.
type LevelStat struct {
	// Level is the 0-based BFS depth; Frontier the number of
	// configurations expanded at that depth.
	Level    int `json:"level"`
	Frontier int `json:"frontier"`
	// Unique / Dedup / Edges are the states discovered, duplicate hits,
	// and transitions fired while expanding this level.
	Unique int64 `json:"unique"`
	Dedup  int64 `json:"dedup"`
	Edges  int64 `json:"edges"`
	// Nanos is the wall-clock spent expanding the level.
	Nanos int64 `json:"nanos"`
}

// BeginLevel opens per-level accounting for a frontier of the given
// width. Counter deltas until the matching EndLevel are attributed to
// the level. Called once per BFS level by the (single) merge goroutine.
func (r *Registry) BeginLevel(frontier int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.levelOpen = true
	r.levelStart = time.Now()
	for c := Counter(0); c < numCounters; c++ {
		r.levelBase[c] = r.counters[c].Load()
	}
	r.mu.Unlock()
	r.SetGauge(FrontierWidth, int64(frontier))
	r.MaxGauge(MaxFrontier, int64(frontier))
}

// EndLevel closes the open level and records its stats.
func (r *Registry) EndLevel() {
	if r == nil {
		return
	}
	r.mu.Lock()
	if !r.levelOpen {
		r.mu.Unlock()
		return
	}
	r.levelOpen = false
	d := time.Since(r.levelStart)
	st := LevelStat{
		Level:    len(r.levels),
		Frontier: int(r.gauges[FrontierWidth].Load()),
		Unique:   r.counters[StatesUnique].Load() - r.levelBase[StatesUnique],
		Dedup:    r.counters[DedupHits].Load() - r.levelBase[DedupHits],
		Edges:    r.counters[TransitionsFired].Load() - r.levelBase[TransitionsFired],
		Nanos:    d.Nanoseconds(),
	}
	r.levels = append(r.levels, st)
	r.levelHist.observeLocked(d)
	r.mu.Unlock()
	r.SetGauge(Level, int64(st.Level+1))
}

// --- Histogram ------------------------------------------------------------

// Histogram is a fixed, power-of-two-bucketed latency histogram
// (buckets: <1µs, <2µs, ..., ≥~1h). Buckets are plain int64 because all
// writers hold the registry mutex; Snapshot copies under the same lock.
type Histogram struct {
	buckets [histBuckets]int64
	count   int64
	sum     int64 // nanoseconds
	max     int64
}

const histBuckets = 32

func (h *Histogram) observeLocked(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	us := ns / 1000 // microsecond resolution; bucket = log2(µs)+1
	b := 0
	if us > 0 {
		b = bits.Len64(uint64(us))
	}
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.buckets[b]++
	h.count++
	h.sum += ns
	if ns > h.max {
		h.max = ns
	}
}

// HistBucket is one non-empty histogram bucket in a snapshot.
type HistBucket struct {
	// Le is the bucket's inclusive upper bound in nanoseconds.
	Le    int64 `json:"le_nanos"`
	Count int64 `json:"count"`
}

func (h *Histogram) snapshotLocked() HistogramStat {
	st := HistogramStat{Count: h.count, SumNanos: h.sum, MaxNanos: h.max}
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		le := int64(1) << i * 1000 // bucket i holds µs values < 2^i
		st.Buckets = append(st.Buckets, HistBucket{Le: le, Count: n})
	}
	return st
}

// HistogramStat is a rendered histogram.
type HistogramStat struct {
	Count    int64        `json:"count"`
	SumNanos int64        `json:"sum_nanos"`
	MaxNanos int64        `json:"max_nanos"`
	Buckets  []HistBucket `json:"buckets,omitempty"`
}

// --- Snapshot -------------------------------------------------------------

// PhaseStat is one named phase's accumulated wall-clock.
type PhaseStat struct {
	Name    string  `json:"name"`
	Nanos   int64   `json:"nanos"`
	Seconds float64 `json:"seconds"`
	Count   int64   `json:"count"`
}

// Snapshot is a point-in-time copy of everything the registry holds,
// ready for JSON encoding or table rendering.
type Snapshot struct {
	ElapsedNanos int64            `json:"elapsed_nanos"`
	Counters     map[string]int64 `json:"counters"`
	Gauges       map[string]int64 `json:"gauges"`
	Phases       []PhaseStat      `json:"phases,omitempty"`
	Levels       []LevelStat      `json:"levels,omitempty"`
	LevelLatency HistogramStat    `json:"level_latency"`
	// StatesPerSec is unique states over total elapsed time.
	StatesPerSec float64 `json:"states_per_sec"`
}

// Snapshot copies the registry. Returns nil on the nil registry.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	s := &Snapshot{
		Counters: make(map[string]int64, numCounters),
		Gauges:   make(map[string]int64, numGauges),
	}
	elapsed := time.Since(r.start)
	s.ElapsedNanos = elapsed.Nanoseconds()
	for c := Counter(0); c < numCounters; c++ {
		s.Counters[c.String()] = r.counters[c].Load()
	}
	for g := Gauge(0); g < numGauges; g++ {
		s.Gauges[g.String()] = r.gauges[g].Load()
	}
	if sec := elapsed.Seconds(); sec > 0 {
		s.StatesPerSec = float64(s.Counters[StatesUnique.String()]) / sec
	}
	r.mu.Lock()
	s.Levels = append([]LevelStat(nil), r.levels...)
	s.LevelLatency = r.levelHist.snapshotLocked()
	for _, name := range r.phaseOrder {
		acc := r.phases[name]
		s.Phases = append(s.Phases, PhaseStat{
			Name:    name,
			Nanos:   acc.nanos,
			Seconds: time.Duration(acc.nanos).Seconds(),
			Count:   acc.count,
		})
	}
	r.mu.Unlock()
	return s
}

// DeterministicCounters returns the snapshot's counters with perf-only
// entries removed — the map that determinism comparisons (sequential vs.
// parallel, exact vs. fingerprint) should use.
func (s *Snapshot) DeterministicCounters() map[string]int64 {
	out := make(map[string]int64, len(s.Counters))
	for name, v := range s.Counters {
		out[name] = v
	}
	for c := Counter(0); c < numCounters; c++ {
		if c.PerfOnly() {
			delete(out, c.String())
		}
	}
	return out
}

// WriteJSON writes the snapshot as indented JSON.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteTable renders the snapshot as a human-readable report.
func (s *Snapshot) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "metrics (elapsed %v):\n", time.Duration(s.ElapsedNanos).Round(time.Microsecond))
	names := make([]string, 0, len(s.Counters))
	for name, v := range s.Counters {
		if v != 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-24s %d\n", name, s.Counters[name])
	}
	if v := s.Gauges[MaxFrontier.String()]; v > 0 {
		fmt.Fprintf(w, "  %-24s %d\n", "max_frontier", v)
	}
	if v := s.Gauges[VisitedBytes.String()]; v > 0 {
		fmt.Fprintf(w, "  %-24s %d\n", "visited_bytes", v)
	}
	if s.StatesPerSec > 0 {
		fmt.Fprintf(w, "  %-24s %.0f\n", "states_per_sec", s.StatesPerSec)
	}
	for _, p := range s.Phases {
		fmt.Fprintf(w, "  phase %-18s %v (x%d)\n", p.Name,
			time.Duration(p.Nanos).Round(time.Microsecond), p.Count)
	}
	if len(s.Levels) > 0 {
		fmt.Fprintf(w, "  levels (%d):\n", len(s.Levels))
		fmt.Fprintf(w, "    %6s  %9s  %9s  %9s  %9s  %s\n",
			"level", "frontier", "unique", "dedup", "edges", "time")
		for _, l := range s.Levels {
			fmt.Fprintf(w, "    %6d  %9d  %9d  %9d  %9d  %v\n",
				l.Level, l.Frontier, l.Unique, l.Dedup, l.Edges,
				time.Duration(l.Nanos).Round(time.Microsecond))
		}
	}
	if s.LevelLatency.Count > 0 {
		fmt.Fprintf(w, "  level latency: count=%d max=%v mean=%v\n",
			s.LevelLatency.Count,
			time.Duration(s.LevelLatency.MaxNanos).Round(time.Microsecond),
			time.Duration(s.LevelLatency.SumNanos/s.LevelLatency.Count).Round(time.Microsecond))
	}
}

// String renders the snapshot table.
func (s *Snapshot) String() string {
	var b strings.Builder
	s.WriteTable(&b)
	return b.String()
}
