package explore

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"psa/internal/lang"
	"psa/internal/metrics"
	"psa/internal/sem"
	"psa/internal/workloads"
)

// orderedSink records the full instrumentation stream as strings, so two
// explorations can be compared event-for-event.
type orderedSink struct {
	events []string
}

func (s *orderedSink) Transition(res *sem.StepResult) {
	s.events = append(s.events, "T:"+res.Proc+":"+describeStep(res))
}

func (s *orderedSink) CoEnabled(c *sem.Config, a, b lang.NodeID, loc sem.Loc, ww bool) {
	s.events = append(s.events, fmt.Sprintf("C:%d:%d:%v:%v", a, b, loc, ww))
}

// stripNanos zeroes the wall-clock field so level stats compare by
// structure only.
func stripNanos(levels []metrics.LevelStat) []metrics.LevelStat {
	out := append([]metrics.LevelStat(nil), levels...)
	for i := range out {
		out[i].Nanos = 0
	}
	return out
}

// The registry's counters must agree exactly with the Result the
// explorer returns, and per-level stats must tile the totals.
func TestMetricsMatchResult(t *testing.T) {
	cases := map[string]struct {
		prog *lang.Program
		opts Options
	}{
		"fig2-full":       {workloads.Fig2(), Options{Reduction: Full}},
		"fig5-stubborn":   {workloads.Fig5Malloc(), Options{Reduction: Stubborn}},
		"philo3-reduced":  {workloads.Philosophers(3), Options{Reduction: Stubborn, Coarsen: true}},
		"philo3-parallel": {workloads.Philosophers(3), Options{Reduction: Full, Workers: 4}},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			m := metrics.New()
			opts := tc.opts
			opts.Metrics = m
			res := Explore(tc.prog, opts)
			if got := m.Get(metrics.StatesUnique); got != int64(res.States) {
				t.Errorf("states_unique = %d, Result.States = %d", got, res.States)
			}
			if got := m.Get(metrics.TransitionsFired); got != int64(res.Edges) {
				t.Errorf("transitions_fired = %d, Result.Edges = %d", got, res.Edges)
			}
			if got := m.Get(metrics.TerminalsSeen); got != int64(len(res.Terminals)) {
				t.Errorf("terminals_seen = %d, len(Terminals) = %d", got, len(res.Terminals))
			}
			gen, dedup := m.Get(metrics.StatesGenerated), m.Get(metrics.DedupHits)
			if gen-dedup != int64(res.States)-1 {
				t.Errorf("generated-dedup = %d, want States-1 = %d", gen-dedup, res.States-1)
			}
			s := m.Snapshot()
			var unique, edges int64
			for _, l := range s.Levels {
				unique += l.Unique
				edges += l.Edges
			}
			if unique != int64(res.States)-1 {
				t.Errorf("levels sum unique = %d, want %d", unique, res.States-1)
			}
			if edges != int64(res.Edges) {
				t.Errorf("levels sum edges = %d, want %d", edges, res.Edges)
			}
			if tc.opts.Reduction == Stubborn {
				if m.Get(metrics.StubbornSingleton)+m.Get(metrics.StubbornPartial)+m.Get(metrics.StubbornFullFallback) == 0 {
					t.Error("no stubborn decisions recorded under stubborn reduction")
				}
			}
			if tc.opts.Coarsen && m.Get(metrics.CoarsenedSteps) == 0 {
				t.Error("no coarsened steps recorded with coarsening on")
			}
			if len(s.Phases) == 0 || s.Phases[0].Name != "explore" {
				t.Errorf("explore phase missing: %+v", s.Phases)
			}
		})
	}
}

// Enabling metrics must not perturb the parallel explorer: for workers
// in {1, 4, GOMAXPROCS} the state/terminal/edge counts, the full ordered
// sink event stream, every worker-independent counter, and the per-level
// stats must be identical to the inline explorer's. Run under -race
// in CI, this is also the data-race check on the metrics hot path.
func TestParallelMetricsDeterministic(t *testing.T) {
	progs := map[string]struct {
		prog *lang.Program
		opts Options
	}{
		"philo3-full":      {workloads.Philosophers(3), Options{Reduction: Full}},
		"philo4-reduced":   {workloads.Philosophers(4), Options{Reduction: Stubborn, Coarsen: true}},
		"peterson-reduced": {workloads.Peterson(), Options{Reduction: Stubborn, Coarsen: true}},
		"workers-coarsen":  {workloads.IndependentWorkers(3, 3), Options{Reduction: Full, Coarsen: true}},
	}
	counters := []metrics.Counter{
		metrics.StatesUnique, metrics.StatesGenerated, metrics.DedupHits,
		metrics.TransitionsFired, metrics.TerminalsSeen, metrics.ErrorsSeen,
		metrics.StubbornSingleton, metrics.StubbornPartial, metrics.StubbornFullFallback,
		metrics.CoarsenedSteps,
	}
	for name, tc := range progs {
		t.Run(name, func(t *testing.T) {
			refM := metrics.New()
			refSink := &orderedSink{}
			refOpts := tc.opts
			refOpts.Metrics = refM
			refOpts.Sink = refSink
			ref := Explore(tc.prog, refOpts)
			refSnap := refM.Snapshot()

			for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
				m := metrics.New()
				sink := &orderedSink{}
				opts := tc.opts
				opts.Workers = workers
				opts.Metrics = m
				opts.Sink = sink
				res := Explore(tc.prog, opts)

				if res.States != ref.States || res.Edges != ref.Edges || len(res.Terminals) != len(ref.Terminals) {
					t.Errorf("workers=%d: counts %d/%d/%d differ from inline %d/%d/%d",
						workers, res.States, res.Edges, len(res.Terminals),
						ref.States, ref.Edges, len(ref.Terminals))
				}
				if !reflect.DeepEqual(res.TerminalStoreSet(), ref.TerminalStoreSet()) {
					t.Errorf("workers=%d: terminal sets differ", workers)
				}
				if !reflect.DeepEqual(sink.events, refSink.events) {
					t.Errorf("workers=%d: sink stream differs (len %d vs %d)",
						workers, len(sink.events), len(refSink.events))
				}
				for _, c := range counters {
					if got, want := m.Get(c), refM.Get(c); got != want {
						t.Errorf("workers=%d: counter %s = %d, inline %d", workers, c, got, want)
					}
				}
				if got, want := stripNanos(m.Snapshot().Levels), stripNanos(refSnap.Levels); !reflect.DeepEqual(got, want) {
					t.Errorf("workers=%d: level stats differ\n got %+v\nwant %+v", workers, got, want)
				}
			}
		})
	}
}

// Metrics plus truncation: the registry must close its open level and
// still agree with the (truncated) result.
func TestMetricsTruncation(t *testing.T) {
	// Coarsening is on so the test also pins the one counter workers
	// could plausibly over-count under truncation: fire() speculatively
	// coarsens the whole level in parallel, but only merged transitions
	// may be credited, so every counter must match workers=1 exactly.
	var ref map[string]int64
	for _, workers := range []int{1, 4} {
		m := metrics.New()
		res := Explore(workloads.Philosophers(4), Options{
			Reduction: Full, Coarsen: true, MaxConfigs: 200, Workers: workers, Metrics: m,
		})
		if !res.Truncated {
			t.Fatalf("workers=%d: expected truncation", workers)
		}
		if got := m.Get(metrics.StatesUnique); got != int64(res.States) {
			t.Errorf("workers=%d: states_unique = %d, Result.States = %d", workers, got, res.States)
		}
		snap := m.Snapshot()
		if len(snap.Levels) == 0 {
			t.Errorf("workers=%d: no level stats after truncation", workers)
		}
		// Perf-only counters (encoder pool traffic, steals) legitimately
		// vary with scheduling; every deterministic counter must match.
		got := snap.DeterministicCounters()
		if ref == nil {
			ref = got
			if ref["coarsened_steps"] == 0 {
				t.Fatal("workload does not coarsen; test would not cover speculative counting")
			}
		} else if !reflect.DeepEqual(ref, got) {
			t.Errorf("workers=%d: counters diverge under truncation:\n  workers=1: %v\n  workers=%d: %v",
				workers, ref, workers, got)
		}
	}
}
