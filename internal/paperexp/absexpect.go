package paperexp

import (
	"fmt"
	"time"

	"psa/internal/absdom"
	"psa/internal/abssem"
	"psa/internal/lang"
	"psa/internal/metrics"
	"psa/internal/pipeline"
	"psa/internal/sched"
	"psa/internal/workloads"
)

// AbsExpectation records the abstract-interpretation counts a reference
// workload MUST produce — the §6 analogue of Expectation. The parallel
// abstract engine is bit-identical to the sequential one by contract, so
// one recorded row gates every worker count.
type AbsExpectation struct {
	// Workload names the program and Domain the numeric domain.
	Workload string
	Domain   string
	// States, Visits, Terminals are the recorded fixpoint counts;
	// MayError the recorded fault verdict.
	States    int
	Visits    int
	Terminals int
	MayError  bool

	prog func() *lang.Program
	opts abssem.Options
}

// AbsExpectations returns the recorded abstract reference workloads.
// Like Expectations, kept cheap enough to gate every CI run.
func AbsExpectations() []AbsExpectation {
	interval := abssem.Options{Domain: absdom.IntervalDomain{}}
	return []AbsExpectation{
		{Workload: "fig8", Domain: "sign", States: 13, Visits: 13, Terminals: 1,
			prog: workloads.Fig8Calls, opts: abssem.Options{Domain: absdom.SignDomain{}}},
		{Workload: "busywait", Domain: "interval", States: 9, Visits: 9, Terminals: 1,
			prog: workloads.BusyWait, opts: interval},
		{Workload: "prodcons3", Domain: "interval", States: 69, Visits: 251, Terminals: 1,
			prog: func() *lang.Program { return workloads.ProducerConsumer(3) }, opts: interval},
		{Workload: "workers(3,3)", Domain: "interval", States: 217, Visits: 217, Terminals: 1,
			prog: func() *lang.Program { return workloads.IndependentWorkers(3, 3) }, opts: interval},
		{Workload: "philosophers3", Domain: "interval", States: 217, Visits: 217, Terminals: 1,
			prog: func() *lang.Program { return workloads.Philosophers(3) }, opts: interval},
		{Workload: "philosophers4", Domain: "const", States: 1297, Visits: 1297, Terminals: 1,
			prog: func() *lang.Program { return workloads.Philosophers(4) },
			opts: abssem.Options{Domain: absdom.ConstDomain{}}},
	}
}

// Program builds a fresh copy of the workload's program.
func (e AbsExpectation) Program() *lang.Program { return e.prog() }

// Options returns the analysis settings the counts were recorded under.
func (e AbsExpectation) Options() abssem.Options { return e.opts }

// AbsWorkloadRow is one verified abstract workload run, the abstract
// analogue of WorkloadRow in cmd/paperbench's JSON report.
type AbsWorkloadRow struct {
	Workload string `json:"workload"`
	Domain   string `json:"domain"`
	Workers  int    `json:"workers"`

	WantStates int  `json:"want_states"`
	States     int  `json:"states"`
	Visits     int  `json:"visits"`
	Terminals  int  `json:"terminals"`
	MayError   bool `json:"may_error"`
	Truncated  bool `json:"truncated"`

	Millis float64 `json:"millis"`

	// Key fixpoint counters from the run's metrics registry.
	Joins     int64 `json:"joins"`
	Widenings int64 `json:"widenings"`
	// Steals and StaleRecomputes are perf-only round counters (steals
	// are always 0 at 0 or 1 workers).
	Steals          int64 `json:"steals"`
	StaleRecomputes int64 `json:"stale_recomputes"`

	OK   bool   `json:"ok"`
	Diag string `json:"diag,omitempty"`
}

// VerifyAbstractWorkloads runs every recorded abstract expectation at the
// given worker count (0 or 1 sequential, >1 parallel, negative
// GOMAXPROCS) and reports one row per workload. A row is not OK when any
// recorded count diverges — including when the run truncated, which the
// old engine reported as empty results that silently "matched" nothing.
func VerifyAbstractWorkloads(workers int) []AbsWorkloadRow {
	// One pool serves every workload run at this worker count (nil — and
	// ignored by the engine — for sequential requests), so the sweep also
	// exercises pool reuse across consecutive engine invocations.
	pool := sched.ForWorkers(workers)
	defer pool.Close()
	return VerifyAbstractWorkloadsOpts(pipeline.RunOptions{Workers: workers, Pool: pool})
}

// VerifyAbstractWorkloadsOpts is VerifyAbstractWorkloads under a shared
// run configuration: each expectation keeps its recorded domain and
// k-limit settings while ro supplies the worker count and pool. The
// caller owns ro.Pool.
func VerifyAbstractWorkloadsOpts(ro pipeline.RunOptions) []AbsWorkloadRow {
	exps := AbsExpectations()
	rows := make([]AbsWorkloadRow, 0, len(exps))
	for _, e := range exps {
		m := metrics.New()
		opts := e.opts
		opts.Metrics = m
		opts.Workers = ro.Workers
		opts.Pool = ro.Pool
		start := time.Now()
		res := abssem.Analyze(e.prog(), opts)
		dur := time.Since(start)

		row := AbsWorkloadRow{
			Workload:   e.Workload,
			Domain:     e.Domain,
			Workers:    ro.Workers,
			WantStates: e.States,
			States:     res.States,
			Visits:     res.Visits,
			Terminals:  res.TerminalCount,
			MayError:   res.MayError,
			Truncated:  res.Truncated,
			Millis:     float64(dur.Microseconds()) / 1000,

			Joins:           m.Get(metrics.AbsJoins),
			Widenings:       m.Get(metrics.AbsWidenings),
			Steals:          m.Get(metrics.AbsSteals),
			StaleRecomputes: m.Get(metrics.AbsStaleRecomputes),
		}
		switch {
		case res.Truncated:
			row.Diag = "abstract fixpoint truncated (MaxStates hit)"
		case res.States != e.States:
			row.Diag = fmt.Sprintf("states %d, recorded expectation %d", res.States, e.States)
		case res.Visits != e.Visits:
			row.Diag = fmt.Sprintf("visits %d, recorded expectation %d", res.Visits, e.Visits)
		case res.TerminalCount != e.Terminals:
			row.Diag = fmt.Sprintf("terminals %d, recorded expectation %d", res.TerminalCount, e.Terminals)
		case res.MayError != e.MayError:
			row.Diag = fmt.Sprintf("mayError %v, recorded expectation %v", res.MayError, e.MayError)
		default:
			row.OK = true
		}
		rows = append(rows, row)
	}
	return rows
}
