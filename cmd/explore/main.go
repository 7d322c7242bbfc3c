// Command explore generates the reachable configuration space of a
// cobegin program and prints state/edge statistics, terminal outcomes,
// and (optionally, sorted by canonical key) every terminal configuration
// — the tooling behind the paper's Figures 3 and 5.
//
// -workers n runs every exploration of the invocation on one pool of n
// workers (sched.ForWorkers: 0/1 inline, negative GOMAXPROCS); the
// output is identical at any count.
//
// Usage:
//
//	explore [flags] program.cb
//
// Examples:
//
//	explore -reduction stubborn -coarsen prog.cb
//	explore -outcomes x,y prog.cb
//	explore -compare prog.cb
//	explore -workers 8 -progress 2s -metrics prog.cb
//	explore -pprof localhost:6060 -trace trace.out big.cb
//
// Observability: -metrics prints the engine-counter report (per-level
// state counts, dedup hits, stubborn decisions, phase wall-clock) after
// the run; -progress writes a periodic states/sec line to stderr;
// -pprof serves net/http/pprof on the given address for live CPU/heap
// profiling of long explorations; -trace writes a runtime/trace file
// for `go tool trace`.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime/trace"
	"slices"
	"strings"
	"syscall"

	"psa/internal/core"
	"psa/internal/metrics"
	"psa/internal/sched"
	"psa/internal/sem"
)

func main() {
	os.Exit(cliMain())
}

// cliMain carries the exit code so the deferred metrics flush and trace
// finalizer execute on EVERY exit path — error exits used to os.Exit
// past them, losing the -metrics-json snapshot and leaving truncated
// trace files. main is the only caller of os.Exit.
func cliMain() (code int) {
	var (
		reduction  = flag.String("reduction", "full", "expansion strategy: full or stubborn")
		coarsen    = flag.Bool("coarsen", false, "virtually coarsen non-critical runs")
		gran       = flag.String("granularity", "ref", "transition granularity: ref (paper model) or stmt")
		max        = flag.Int("max", 1<<20, "configuration cap")
		workers    = flag.Int("workers", 1, "size of the worker pool the explorer runs on (0/1 inline, <0 GOMAXPROCS); results are identical at any count")
		exactKeys  = flag.Bool("exact-keys", false, "store full canonical keys in the visited set instead of 128-bit fingerprints (more memory, zero collision risk)")
		outcomes   = flag.String("outcomes", "", "comma-separated globals: print the terminal outcome set")
		terminals  = flag.Bool("terminals", false, "print every terminal configuration, sorted by canonical key")
		compare    = flag.Bool("compare", false, "run all reduction combinations and compare")
		dot        = flag.String("dot", "", "write the configuration graph to this Graphviz file")
		divergence = flag.Bool("divergence", false, "report configurations from which no terminal is reachable (infinite waits)")
		witness    = flag.Bool("witness", false, "print a schedule reaching each error state")
		showMet    = flag.Bool("metrics", false, "print the engine metrics report after the run")
		metJSON    = flag.String("metrics-json", "", "write the engine metrics snapshot as JSON to this file")
		progress   = flag.Duration("progress", 0, "print a progress line to stderr at this interval (e.g. 2s)")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) during the run")
		traceFile  = flag.String("trace", "", "write a runtime/trace of the run to this file")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: explore [flags] program.cb")
		flag.PrintDefaults()
		return 2
	}
	a, err := core.ParseFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	if *pprofAddr != "" {
		go func() {
			// net/http/pprof registers its handlers on the default mux.
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "pprof server: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "pprof listening on http://%s/debug/pprof/\n", *pprofAddr)
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := trace.Start(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer func() {
			trace.Stop()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
			fmt.Fprintf(os.Stderr, "runtime trace written to %s (inspect with `go tool trace %s`)\n", *traceFile, *traceFile)
		}()
	}

	// One worker pool serves every exploration of the invocation (nil, so
	// every run goes inline, for worker counts 0 and 1).
	pool := sched.ForWorkers(*workers)
	defer pool.Close()

	var reg *metrics.Registry
	if *showMet || *metJSON != "" || *progress > 0 {
		reg = metrics.New()
	}
	// Deferred so the snapshot of whatever work DID happen survives
	// error exits — the error paths above and below return instead of
	// calling os.Exit, which would skip this flush.
	defer func() {
		if !flushMetrics(reg, *showMet, *metJSON) && code == 0 {
			code = 1
		}
	}()
	if *progress > 0 {
		stop := reg.StartProgress(os.Stderr, *progress)
		defer stop()
	}

	// SIGINT/SIGTERM cancel the in-flight exploration at its next merge
	// boundary; the run returns a coherent partial result and the
	// deferred flush still reports the metrics of the explored prefix.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	a.WithContext(ctx)

	// One run configuration spans every exploration of the invocation.
	a.Configure(core.RunOptions{
		Pool:       pool,
		MaxConfigs: *max,
		ExactKeys:  *exactKeys,
		Metrics:    reg,
	})

	if *compare {
		combos := []struct {
			name    string
			red     core.Reduction
			coarsen bool
		}{
			{"full", core.Full, false},
			{"full+coarsen", core.Full, true},
			{"stubborn", core.Stubborn, false},
			{"stubborn+coarsen", core.Stubborn, true},
		}
		var ref []string
		for i, c := range combos {
			res := a.Explore(a.Options().Strategy(c.red, c.coarsen).ExploreOptions())
			marker := ""
			if i == 0 {
				ref = res.TerminalStoreSet()
			} else if !equal(ref, res.TerminalStoreSet()) {
				marker = "  !! result-configurations differ from full"
			}
			fmt.Printf("%-17s %s%s\n", c.name+":", res, marker)
		}
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "interrupted: results above cover the explored prefix only")
			return 130
		}
		return 0
	}

	opts := a.Options().ExploreOptions()
	opts.Coarsen = *coarsen
	switch *reduction {
	case "full":
		opts.Reduction = core.Full
	case "stubborn":
		opts.Reduction = core.Stubborn
	default:
		fmt.Fprintf(os.Stderr, "unknown reduction %q\n", *reduction)
		return 2
	}
	switch *gran {
	case "ref":
		opts.Granularity = sem.GranRef
	case "stmt":
		opts.Granularity = sem.GranStmt
	default:
		fmt.Fprintf(os.Stderr, "unknown granularity %q\n", *gran)
		return 2
	}

	if *dot != "" || *divergence || *witness {
		opts.KeepGraph = true
	}
	res := a.Explore(opts)
	fmt.Println(res)

	if *dot != "" {
		f, err := os.Create(*dot)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := res.Graph.WriteDOT(f, flag.Arg(0)); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("configuration graph written to %s\n", *dot)
	}

	if *divergence {
		div := res.Graph.Divergent()
		if len(div) == 0 {
			fmt.Println("no divergent configurations: every reachable state can still terminate")
		} else {
			fmt.Printf("%d of %d configurations cannot reach a terminal (infinite wait)\n", len(div), res.States)
			if tr, ok := res.Graph.TraceTo(div[0]); ok {
				fmt.Println("schedule entering the first one:")
				for _, s := range tr {
					fmt.Printf("  proc %s: %s\n", s.Proc, s.Stmt)
				}
			}
		}
	}

	if *witness {
		for _, ec := range res.Errors {
			fmt.Printf("error: %s\n", ec.Err)
			if tr, ok := res.Graph.TraceTo(ec.Encode()); ok {
				for _, s := range tr {
					fmt.Printf("  proc %s: %s\n", s.Proc, s.Stmt)
				}
			}
		}
	}

	if *outcomes != "" {
		names := strings.Split(*outcomes, ",")
		for i := range names {
			names[i] = strings.TrimSpace(names[i])
		}
		fmt.Printf("outcomes over (%s):\n", strings.Join(names, ","))
		for _, o := range res.OutcomeSet(names...) {
			cells := make([]string, len(o))
			for i, v := range o {
				cells[i] = fmt.Sprint(v)
			}
			fmt.Printf("  (%s)\n", strings.Join(cells, ","))
		}
	}

	if *terminals {
		keys := make([]sem.Key, 0, len(res.Terminals))
		for k := range res.Terminals {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			c := res.Terminals[k]
			if c.Err != "" {
				fmt.Printf("terminal ERROR: %s\n", c.Err)
				continue
			}
			fmt.Printf("terminal: %s\n", shorten(string(k)))
		}
	}

	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "interrupted: results above cover the explored prefix only")
		return 130
	}
	return 0
}

// flushMetrics writes the -metrics / -metrics-json reports; it runs
// deferred so the snapshot of the work already done survives error
// exits. Returns false when the JSON file could not be written.
func flushMetrics(reg *metrics.Registry, showTable bool, jsonPath string) bool {
	if reg == nil {
		return true
	}
	snap := reg.Snapshot()
	if showTable {
		snap.WriteTable(os.Stdout)
	}
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return false
		}
		if err := snap.WriteJSON(f); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, err)
			return false
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return false
		}
		fmt.Printf("metrics written to %s\n", jsonPath)
	}
	return true
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func shorten(s string) string {
	s = strings.ReplaceAll(s, "\n", " ")
	if len(s) > 120 {
		return s[:117] + "..."
	}
	return s
}
