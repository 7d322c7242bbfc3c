// Command psa is the analyzer front end: it parses a cobegin program and
// runs the requested analyses — state-space statistics, data dependences,
// side effects, memory placement, access anomalies, parallelization, and
// optimization-safety queries.
//
// Usage:
//
//	psa [flags] program.cb
//
// Examples:
//
//	psa -explore prog.cb
//	psa -deps s1,s2,s3,s4 prog.cb
//	psa -parallelize s1,s2,s3,s4 prog.cb
//	psa -placements b1,b2 prog.cb
//	psa -effects f1 prog.cb
//	psa -anomalies prog.cb
//	psa -hoist loop:flag -constprop use:k prog.cb
//	psa -abstract sign prog.cb
//	psa -abstract interval -workers 4 prog.cb
//	psa -metrics prog.cb
//	psa -metrics-json out.json prog.cb
//
// -workers N runs both the concrete explorer and the abstract fixpoint
// engine with N worker goroutines (0/1 sequential, negative GOMAXPROCS);
// every reported number is identical at any worker count. Both engines
// run in parallel on the same dependency-driven pipeline.
//
// Observability: -metrics prints an engine-counter report (states
// generated/deduped per BFS level, stubborn-set decisions, widening and
// join events, per-phase wall-clock) after the analyses; -metrics-json
// writes the same snapshot as JSON; -progress prints a periodic
// states/sec line to stderr during long explorations.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"psa/internal/absdom"
	"psa/internal/core"
	"psa/internal/lang"
	"psa/internal/metrics"
	"psa/internal/sched"
)

func main() {
	os.Exit(cliMain())
}

// cliMain carries the exit code so the deferred metrics flush executes
// on EVERY exit path — error exits used to os.Exit past the -metrics /
// -metrics-json output, losing the snapshot of the work already done.
// main is the only caller of os.Exit.
func cliMain() (code int) {
	var (
		doExplore   = flag.Bool("explore", false, "print state-space statistics (full vs. stubborn vs. coarsened)")
		deps        = flag.String("deps", "", "comma-separated statement labels: report data dependences")
		parallelize = flag.String("parallelize", "", "comma-separated statement labels: propose a parallel schedule")
		placements  = flag.String("placements", "", "comma-separated allocation labels: memory placement report")
		effects     = flag.String("effects", "", "function name: side-effect summary")
		anomalies   = flag.Bool("anomalies", false, "report access anomalies (co-enabled conflicting accesses)")
		hoist       = flag.String("hoist", "", "loopLabel:global — may the load be hoisted out of the loop?")
		constprop   = flag.String("constprop", "", "label:global — may the load be replaced by a constant?")
		abstract    = flag.String("abstract", "", "run the abstract interpreter with this domain (const|sign|interval)")
		clan        = flag.Bool("clan", false, "fold identical cobegin arms during abstract interpretation")
		format      = flag.Bool("format", false, "pretty-print the parsed program and exit")
		dealloc     = flag.Bool("dealloc", false, "print per-function deallocation lists")
		conflictdot = flag.String("conflictdot", "", "labels:file — write the statement conflict graph as Graphviz")
		unreachable = flag.Bool("unreachable", false, "report statements no execution can reach")
		invariants  = flag.String("invariants", "", "label: print the abstract value of every global at that statement")
		report      = flag.Bool("report", false, "print a full markdown analysis report")
		workers     = flag.Int("workers", 0, "worker goroutines for the concrete explorer and the abstract fixpoint (0/1 sequential, <0 GOMAXPROCS); results are identical at any count")
		showMetrics = flag.Bool("metrics", false, "print the engine metrics report after the analyses")
		metricsJSON = flag.String("metrics-json", "", "write the engine metrics snapshot as JSON to this file")
		progress    = flag.Duration("progress", 0, "print a progress line to stderr at this interval (e.g. 2s)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: psa [flags] program.cb")
		flag.PrintDefaults()
		return 2
	}
	a, err := core.ParseFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	if *format {
		fmt.Print(a.Format())
		return
	}

	// One worker pool spans every parallel engine run of the invocation
	// (nil — and ignored by the engines — for sequential worker counts).
	pool := sched.ForWorkers(*workers)
	defer pool.Close()

	// One registry spans every analysis the invocation runs; phases keep
	// the explorations and abstract runs apart in the report.
	var reg *metrics.Registry
	if *showMetrics || *metricsJSON != "" || *progress > 0 {
		reg = metrics.New()
	}
	// Deferred so every exit path — including error returns below —
	// still reports the metrics of the work that DID run.
	defer func() {
		if !flushMetrics(reg, *showMetrics, *metricsJSON) && code == 0 {
			code = 1
		}
	}()
	if *progress > 0 {
		stop := reg.StartProgress(os.Stderr, *progress)
		defer stop()
	}

	// SIGINT/SIGTERM cancel the in-flight engine run at its next merge
	// boundary; the run returns a coherent partial result and the
	// deferred flush still reports the metrics of the explored prefix.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	a.WithContext(ctx)

	// One run configuration spans every analysis of the invocation: the
	// Collect-backed queries (dependences, anomalies, placements, ...)
	// fuse into one instrumented exploration, and the abstract runs
	// inherit the same pool and registry.
	a.Configure(core.RunOptions{Workers: *workers, Pool: pool, Metrics: reg})

	ran := false

	if *doExplore {
		ran = true
		for _, cfg := range []struct {
			name    string
			red     core.Reduction
			coarsen bool
		}{
			{"full", core.Full, false},
			{"stubborn", core.Stubborn, false},
			{"stubborn+coarsen", core.Stubborn, true},
		} {
			res := a.Explore(a.Options().Strategy(cfg.red, cfg.coarsen).ExploreOptions())
			fmt.Printf("%-17s %s\n", cfg.name+":", res)
		}
	}

	if *deps != "" {
		ran = true
		for _, d := range a.Dependences(splitList(*deps)...) {
			fmt.Println(d)
		}
	}

	if *parallelize != "" {
		ran = true
		fmt.Println(a.Parallelize(splitList(*parallelize)...))
	}

	if *placements != "" {
		ran = true
		fmt.Print(a.Placements(splitList(*placements)...))
	}

	if *effects != "" {
		ran = true
		se, err := a.SideEffects(*effects)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if len(se) == 0 {
			fmt.Printf("%s: no side effects (pure)\n", *effects)
		}
		for _, e := range se {
			fmt.Printf("%s: %s %s\n", *effects, e.Kind, e.Loc.Format(a.Prog))
		}
	}

	if *anomalies {
		ran = true
		as := a.Anomalies()
		if len(as) == 0 {
			fmt.Println("no access anomalies")
		}
		for _, an := range as {
			kind := "read/write"
			if an.WriteWrite {
				kind = "write/write"
			}
			fmt.Printf("anomaly: %s between %s and %s on %s\n",
				kind, describeNode(a.Prog, an.StmtA), describeNode(a.Prog, an.StmtB), an.Loc)
		}
	}

	if *hoist != "" {
		ran = true
		label, global, ok := splitPair(*hoist)
		if !ok {
			fmt.Fprintln(os.Stderr, "-hoist wants loopLabel:global")
			return 2
		}
		fmt.Printf("hoist %s out of %s: %s\n", global, label, a.NewOracle().HoistLoad(label, global))
	}

	if *constprop != "" {
		ran = true
		label, global, ok := splitPair(*constprop)
		if !ok {
			fmt.Fprintln(os.Stderr, "-constprop wants label:global")
			return 2
		}
		fmt.Printf("const-prop %s at %s: %s\n", global, label, a.NewOracle().ConstProp(label, global))
	}

	if *abstract != "" {
		ran = true
		dom := absdom.DomainByName(*abstract)
		if dom == nil {
			fmt.Fprintf(os.Stderr, "unknown domain %q (const|sign|interval)\n", *abstract)
			return 2
		}
		res := a.AbstractWith(core.AbstractOptions{Domain: dom, ClanFold: *clan})
		fmt.Println(res)
		if res.Truncated {
			fmt.Println("  WARNING: fixpoint truncated (MaxStates hit); invariants cover the explored prefix only")
		}
		for _, g := range a.Prog.Globals {
			if v, ok := res.GlobalInvariant(g.Name); ok {
				fmt.Printf("  %s = %s at termination\n", g.Name, v)
			}
		}
	}

	if *conflictdot != "" {
		ran = true
		spec, file, ok := splitPairLast(*conflictdot)
		if !ok {
			fmt.Fprintln(os.Stderr, "-conflictdot wants label1,label2,...:file")
			return 2
		}
		f, err := os.Create(file)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := a.WriteConflictDOT(f, splitList(spec)...); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("conflict graph written to %s\n", file)
	}

	if *dealloc {
		ran = true
		lists := a.DeallocationLists()
		if len(lists) == 0 {
			fmt.Println("no reclaimable allocations")
		}
		for _, dl := range lists {
			fmt.Println(dl)
		}
	}

	if *unreachable {
		ran = true
		un := a.Abstract().Unreachable()
		if len(un) == 0 {
			fmt.Println("every statement is reachable")
		}
		for _, s := range un {
			fmt.Printf("unreachable: %s at %s\n", lang.DescribeStmt(s), s.NodePos())
		}
	}

	if *invariants != "" {
		ran = true
		res := a.Abstract()
		for _, g := range a.Prog.Globals {
			if v, ok := res.GlobalAt(*invariants, g.Name); ok {
				fmt.Printf("at %s: %s = %s\n", *invariants, g.Name, v)
			} else {
				fmt.Printf("at %s: %s = (unreached)\n", *invariants, g.Name)
			}
		}
	}

	if *report {
		ran = true
		if err := a.Report(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}

	if !ran {
		// Default action: quick exploration summary plus anomalies.
		res := a.Explore(a.Options().Strategy(core.Stubborn, true).ExploreOptions())
		fmt.Println(res)
		for _, an := range a.Anomalies() {
			fmt.Printf("anomaly between %s and %s on %s\n",
				describeNode(a.Prog, an.StmtA), describeNode(a.Prog, an.StmtB), an.Loc)
		}
	}

	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "psa: interrupted; reported results cover the explored prefix only")
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

func splitList(s string) []string {
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func splitPair(s string) (string, string, bool) {
	i := strings.IndexByte(s, ':')
	if i <= 0 || i == len(s)-1 {
		return "", "", false
	}
	return s[:i], s[i+1:], true
}

// splitPairLast splits on the LAST colon (the spec part may contain none,
// the file part may be a path without colons).
func splitPairLast(s string) (string, string, bool) {
	i := strings.LastIndexByte(s, ':')
	if i <= 0 || i == len(s)-1 {
		return "", "", false
	}
	return s[:i], s[i+1:], true
}

func describeNode(p *core.Program, id lang.NodeID) string {
	if n := p.Node(id); n != nil {
		if s, ok := n.(lang.Stmt); ok {
			return lang.DescribeStmt(s)
		}
	}
	return fmt.Sprintf("node %d", id)
}
