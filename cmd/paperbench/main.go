// Command paperbench regenerates every quantitative artifact of the
// paper: the Figure 2/3/5/8 results, the §5/§7 analyses, the dining-
// philosophers scaling claim, and the reduction ablations. It prints the
// same rows EXPERIMENTS.md records.
//
// Unless -verify=false, it then re-runs the recorded reference workloads
// (internal/paperexp.Expectations and AbsExpectations) with metrics
// enabled and exits non-zero if any state/edge/terminal/visit count
// diverges from its recorded expectation, or if an abstract run
// truncates — the regression gate CI's bench job enforces. -workers N
// threads one shared RunOptions (one sched.Pool of N workers) through
// every experiment and both verification sweeps; every recorded count
// must match at any worker count.
//
// With -json FILE it also writes a machine-readable report: environment,
// per-experiment tables, and per-workload rows (counts, wall-clock,
// states/sec, dedup hits, stubborn decisions) for trajectory tracking.
//
// Usage:
//
//	paperbench [-small] [-only E4] [-verify=false] [-json report.json]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"psa/internal/paperexp"
	"psa/internal/pipeline"
	"psa/internal/sched"
)

// report is the -json output document.
type report struct {
	GoOS        string                    `json:"goos"`
	GoArch      string                    `json:"goarch"`
	GoVersion   string                    `json:"go_version"`
	Small       bool                      `json:"small"`
	ExactKeys   bool                      `json:"exact_keys"`
	Workers     int                       `json:"workers"`
	Experiments []experimentRow           `json:"experiments"`
	Workloads   []paperexp.WorkloadRow    `json:"workloads,omitempty"`
	AbsRuns     []paperexp.AbsWorkloadRow `json:"abstract_workloads,omitempty"`
	TotalMillis float64                   `json:"total_millis"`
	OK          bool                      `json:"ok"`
}

type experimentRow struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Millis  float64    `json:"millis"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

func main() {
	small := flag.Bool("small", false, "smaller sweeps (n≤4 philosophers) for quick runs")
	only := flag.String("only", "", "run a single experiment by ID (e.g. E4)")
	verify := flag.Bool("verify", true, "check reference workloads against recorded state counts; exit 1 on divergence")
	exactKeys := flag.Bool("exact-keys", false, "verify the reference workloads with full canonical keys instead of the default 128-bit fingerprints")
	workers := flag.Int("workers", 0, "size of the one worker pool every experiment and verification run uses (0/1 inline, <0 GOMAXPROCS); recorded counts must hold at any count")
	jsonOut := flag.String("json", "", "write a machine-readable report (experiments + per-workload metrics rows) to this file")
	flag.Parse()

	// One run configuration — and one worker pool — spans every
	// experiment and verification run of the invocation (nil pool, so
	// every run goes inline, for sequential requests).
	pool := sched.ForWorkers(*workers)
	defer pool.Close()
	ro := pipeline.RunOptions{Pool: pool, ExactKeys: *exactKeys}

	// An interrupt stops at the next experiment boundary; the tables
	// printed so far stand, the verification gate is skipped (its result
	// would be incomplete), and the -json report still gets written.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	start := time.Now()
	rep := &report{
		GoOS:      runtime.GOOS,
		GoArch:    runtime.GOARCH,
		GoVersion: runtime.Version(),
		Small:     *small,
		ExactKeys: *exactKeys,
		Workers:   *workers,
		OK:        true,
	}

	found := false
	for _, e := range paperexp.Registry(*small) {
		if *only != "" && e.ID != *only {
			continue
		}
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "paperbench: interrupted; remaining experiments skipped")
			break
		}
		found = true
		t0 := time.Now()
		tab := e.Run(ro)
		fmt.Println(tab)
		rep.Experiments = append(rep.Experiments, experimentRow{
			ID:      tab.ID,
			Title:   tab.Title,
			Millis:  float64(time.Since(t0).Microseconds()) / 1000,
			Headers: tab.Headers,
			Rows:    tab.Rows,
			Notes:   tab.Notes,
		})
	}
	if *only != "" && !found {
		fmt.Fprintf(os.Stderr, "no experiment %q (E1..E15)\n", *only)
		os.Exit(2)
	}

	// Regression gate: every reference workload must reproduce its
	// recorded counts exactly. Skipped when a single experiment was
	// requested (exploratory use), unless verification was forced off
	// anyway.
	if *verify && *only == "" && ctx.Err() == nil {
		rep.Workloads = paperexp.VerifyWorkloadsOpts(ro)
		fmt.Printf("%-16s %-18s %10s %10s %10s %12s %12s  %s\n",
			"workload", "strategy", "states", "edges", "dedup", "states/sec", "visited(B)", "ok")
		for _, row := range rep.Workloads {
			ok := "ok"
			if !row.OK {
				ok = "DIVERGED"
				rep.OK = false
			}
			fmt.Printf("%-16s %-18s %10d %10d %10d %12.0f %12d  %s\n",
				row.Workload, row.Strategy, row.States, row.Edges, row.DedupHits, row.StatesPerSec, row.VisitedBytes, ok)
		}
		for _, row := range rep.Workloads {
			if !row.OK {
				fmt.Fprintf(os.Stderr, "paperbench: %s/%s diverged from recorded expectation: %s\n",
					row.Workload, row.Strategy, row.Diag)
			}
		}

		// Abstract gate: the §6 fixpoint counts, verified at the requested
		// worker count (the engine is bit-identical at any count, so the
		// recorded rows need no per-worker variants). Truncated runs fail
		// loudly instead of silently verifying against partial results.
		rep.AbsRuns = paperexp.VerifyAbstractWorkloadsOpts(ro)
		fmt.Printf("\n%-16s %-10s %8s %10s %10s %10s %10s  %s\n",
			"abstract", "domain", "workers", "states", "visits", "joins", "widenings", "ok")
		for _, row := range rep.AbsRuns {
			ok := "ok"
			switch {
			case row.Truncated:
				ok = "TRUNCATED"
				rep.OK = false
			case !row.OK:
				ok = "DIVERGED"
				rep.OK = false
			}
			fmt.Printf("%-16s %-10s %8d %10d %10d %10d %10d  %s\n",
				row.Workload, row.Domain, row.Workers, row.States, row.Visits, row.Joins, row.Widenings, ok)
		}
		for _, row := range rep.AbsRuns {
			if !row.OK {
				fmt.Fprintf(os.Stderr, "paperbench: abstract %s/%s diverged from recorded expectation: %s\n",
					row.Workload, row.Domain, row.Diag)
			}
		}
	}

	rep.TotalMillis = float64(time.Since(start).Microseconds()) / 1000
	fmt.Printf("total: %v\n", time.Since(start).Round(time.Millisecond))

	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("json report written to %s\n", *jsonOut)
	}

	if !rep.OK {
		os.Exit(1)
	}
	if ctx.Err() != nil {
		os.Exit(130)
	}
}
