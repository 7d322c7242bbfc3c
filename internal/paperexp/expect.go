package paperexp

import (
	"fmt"
	"time"

	"psa/internal/explore"
	"psa/internal/lang"
	"psa/internal/metrics"
	"psa/internal/pipeline"
	"psa/internal/workloads"
)

// Expectation records the state/edge counts a reference workload MUST
// produce. The numbers are the measured values in EXPERIMENTS.md (the
// reproduction's recorded ground truth); any divergence means an engine
// change silently altered the explored configuration space, and
// cmd/paperbench (and therefore CI) fails on it.
type Expectation struct {
	// Workload names the program and Strategy the reduction settings.
	Workload string
	Strategy string
	// States and Edges are the recorded counts; Terminals the number of
	// terminal configurations (error states included).
	States    int
	Edges     int
	Terminals int

	prog func() *lang.Program
	opts explore.Options
}

// Expectations returns the recorded reference workloads. Kept cheap
// enough (~1s total) to gate every CI run at full scale.
func Expectations() []Expectation {
	full := explore.Options{Reduction: explore.Full, MaxConfigs: 1 << 22}
	reduced := explore.Options{Reduction: explore.Stubborn, Coarsen: true, MaxConfigs: 1 << 22}
	stub := explore.Options{Reduction: explore.Stubborn, MaxConfigs: 1 << 22}
	return []Expectation{
		{Workload: "fig2", Strategy: "full", States: 14, Edges: 15, Terminals: 3,
			prog: workloads.Fig2, opts: full},
		{Workload: "fig5-malloc", Strategy: "full", States: 18, Edges: 23, Terminals: 3,
			prog: workloads.Fig5Malloc, opts: full},
		{Workload: "fig5-malloc", Strategy: "stubborn", States: 15, Edges: 17, Terminals: 3,
			prog: workloads.Fig5Malloc, opts: stub},
		{Workload: "philosophers2", Strategy: "full", States: 65, Edges: 101, Terminals: 3,
			prog: func() *lang.Program { return workloads.Philosophers(2) }, opts: full},
		{Workload: "philosophers3", Strategy: "full", States: 595, Edges: 1375, Terminals: 7,
			prog: func() *lang.Program { return workloads.Philosophers(3) }, opts: full},
		{Workload: "philosophers4", Strategy: "full", States: 5217, Edges: 16025, Terminals: 15,
			prog: func() *lang.Program { return workloads.Philosophers(4) }, opts: full},
		{Workload: "philosophers4", Strategy: "stubborn+coarsen", States: 584, Edges: 809, Terminals: 15,
			prog: func() *lang.Program { return workloads.Philosophers(4) }, opts: reduced},
		{Workload: "philosophers5", Strategy: "stubborn+coarsen", States: 1840, Edges: 2577, Terminals: 31,
			prog: func() *lang.Program { return workloads.Philosophers(5) }, opts: reduced},
		{Workload: "peterson", Strategy: "stubborn+coarsen", States: 43, Edges: 63, Terminals: 2,
			prog: workloads.Peterson, opts: reduced},
		{Workload: "workers(3,3)", Strategy: "full", States: 276, Edges: 631, Terminals: 3,
			prog: func() *lang.Program { return workloads.IndependentWorkers(3, 3) }, opts: full},
		{Workload: "workers(3,3)", Strategy: "full+coarsen", States: 60, Edges: 100, Terminals: 3,
			prog: func() *lang.Program { return workloads.IndependentWorkers(3, 3) },
			opts: explore.Options{Reduction: explore.Full, Coarsen: true, MaxConfigs: 1 << 22}},
	}
}

// Program builds a fresh copy of the workload's program.
func (e Expectation) Program() *lang.Program { return e.prog() }

// Options returns the exploration settings the counts were recorded
// under.
func (e Expectation) Options() explore.Options { return e.opts }

// WorkloadRow is one verified workload run: the machine-readable
// per-workload record cmd/paperbench emits (and CI archives) for
// trajectory tracking.
type WorkloadRow struct {
	Workload string `json:"workload"`
	Strategy string `json:"strategy"`

	WantStates int `json:"want_states"`
	States     int `json:"states"`
	Edges      int `json:"edges"`
	Terminals  int `json:"terminals"`

	Millis       float64 `json:"millis"`
	StatesPerSec float64 `json:"states_per_sec"`

	// Key engine counters from the run's metrics registry.
	DedupHits         int64 `json:"dedup_hits"`
	MaxFrontier       int64 `json:"max_frontier"`
	Levels            int   `json:"levels"`
	StubbornSingleton int64 `json:"stubborn_singleton"`
	StubbornFull      int64 `json:"stubborn_full_fallback"`
	CoarsenedSteps    int64 `json:"coarsened_steps"`
	// VisitedBytes is the memory retained by the visited set (full keys
	// in exact mode, fingerprint table in fingerprint mode).
	VisitedBytes int64 `json:"visited_bytes"`

	OK   bool   `json:"ok"`
	Diag string `json:"diag,omitempty"`
}

// VerifyWorkloads runs every recorded expectation with a fresh metrics
// registry and reports one row per workload. A row is not OK when any
// recorded count diverges. Runs use the engine's default fingerprinted
// visited set; the recorded counts were taken with exact keys, so a pass
// doubles as a collision check over the whole corpus.
func VerifyWorkloads() []WorkloadRow { return VerifyWorkloadsOpts(pipeline.RunOptions{}) }

// VerifyWorkloadsMode is VerifyWorkloads with an explicit key mode:
// exactKeys true forces the full-key visited set (Options.ExactKeys).
func VerifyWorkloadsMode(exactKeys bool) []WorkloadRow {
	return VerifyWorkloadsOpts(pipeline.RunOptions{ExactKeys: exactKeys})
}

// VerifyWorkloadsOpts is VerifyWorkloads under caller-provided execution
// settings: ExactKeys and Pool are honored per run. The
// strategy fields are ignored — each expectation records its own
// reduction settings, which are what its counts were measured under.
func VerifyWorkloadsOpts(ro pipeline.RunOptions) []WorkloadRow {
	return verifyAgainst(Expectations(), ro)
}

func verifyAgainst(exps []Expectation, ro pipeline.RunOptions) []WorkloadRow {
	rows := make([]WorkloadRow, 0, len(exps))
	for _, e := range exps {
		m := metrics.New()
		opts := e.opts
		opts.Metrics = m
		opts.ExactKeys = ro.ExactKeys
		opts.Pool = ro.Pool
		start := time.Now()
		res := explore.Explore(e.prog(), opts)
		dur := time.Since(start)

		row := WorkloadRow{
			Workload:   e.Workload,
			Strategy:   e.Strategy,
			WantStates: e.States,
			States:     res.States,
			Edges:      res.Edges,
			Terminals:  len(res.Terminals),
			Millis:     float64(dur.Microseconds()) / 1000,

			DedupHits:         m.Get(metrics.DedupHits),
			MaxFrontier:       m.Gauge(metrics.MaxFrontier),
			Levels:            len(m.Snapshot().Levels),
			StubbornSingleton: m.Get(metrics.StubbornSingleton),
			StubbornFull:      m.Get(metrics.StubbornFullFallback),
			CoarsenedSteps:    m.Get(metrics.CoarsenedSteps),
			VisitedBytes:      m.Gauge(metrics.VisitedBytes),
		}
		if sec := dur.Seconds(); sec > 0 {
			row.StatesPerSec = float64(res.States) / sec
		}
		switch {
		case res.States != e.States:
			row.Diag = fmt.Sprintf("states %d, recorded expectation %d", res.States, e.States)
		case res.Edges != e.Edges:
			row.Diag = fmt.Sprintf("edges %d, recorded expectation %d", res.Edges, e.Edges)
		case len(res.Terminals) != e.Terminals:
			row.Diag = fmt.Sprintf("terminals %d, recorded expectation %d", len(res.Terminals), e.Terminals)
		case res.Truncated:
			row.Diag = "exploration truncated"
		default:
			row.OK = true
		}
		rows = append(rows, row)
	}
	return rows
}
