// Command psasoak is the differential soak harness: it generates random
// cobegin programs (internal/progen) and runs each through four oracles
// that cross-check the analysis stack against itself —
//
//  1. soundness: every concrete terminal store/outcome of full
//     exploration is covered by the abstract invariants;
//  2. reduction: stubborn-set reduction and virtual coarsening preserve
//     the terminal store set of full exploration;
//  3. parallel: both engines report bit-identical results at 1, 4, and
//     GOMAXPROCS workers;
//  4. fingerprint: the 128-bit fingerprinted visited set and the exact
//     canonical-key visited set agree on state counts and terminals.
//
// --edits N switches the harness to oracle 5 instead (see edits.go):
// each seed's program becomes the base of an N-step random edit chain
// (progen.Mutate), and every version is checked for bit-identity —
// Result digest and deterministic counters — between from-scratch
// analysis and three persistent incremental sessions (workers 0/1/4)
// that each carry their previous result across the chain.
//
// Programs whose exploration hits the configuration cap are skipped (the
// oracles need complete answers). On divergence the failing program is
// delta-debugged down to a minimal reproducer (internal/progen's
// shrinker), written to the corpus directory, and the run exits nonzero.
//
// A fixed --seed makes a run reproducible: the i-th program of a run is
// Generate(seed+i, profile).
//
// --inject-unsound deliberately corrupts the soundness oracle (the
// abstract store is replaced by one claiming every global still holds
// its initializer) to prove the catch-and-shrink path works end to end;
// it is the harness's self-test, not an analysis mode.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"psa/internal/absdom"
	"psa/internal/abssem"
	"psa/internal/explore"
	"psa/internal/lang"
	"psa/internal/pipeline"
	"psa/internal/progen"
	"psa/internal/sem"
)

type oracleReport struct {
	Checked     int `json:"checked"`
	Divergences int `json:"divergences"`
}

type divergenceReport struct {
	Seed       int64  `json:"seed"`
	Oracle     string `json:"oracle"`
	Detail     string `json:"detail"`
	Reproducer string `json:"reproducer,omitempty"`     // file path when --corpus is set
	Shrunk     string `json:"reproducer_src,omitempty"` // minimized source
}

type report struct {
	BaseSeed    int64                    `json:"base_seed"`
	Profile     string                   `json:"profile"`
	Edits       int                      `json:"edits,omitempty"`
	Requested   int                      `json:"requested"`
	Ran         int                      `json:"ran"`
	Skipped     int                      `json:"skipped_truncated"`
	Oracles     map[string]*oracleReport `json:"oracles"`
	Divergences []divergenceReport       `json:"divergences"`
	DurationSec float64                  `json:"duration_sec"`
}

// failure is one oracle divergence plus the predicate that reproduces it
// on a candidate program (used by the shrinker).
type failure struct {
	oracle string
	detail string
	pred   func(*lang.Program) bool
}

var oracleNames = []string{"soundness", "reduction", "parallel", "fingerprint"}

func main() {
	var (
		seed         = flag.Int64("seed", 1, "base seed; program i uses seed+i")
		n            = flag.Int("n", 200, "number of programs to generate")
		profileName  = flag.String("profile", "default", "generator profile: default, small, or big")
		maxConfigs   = flag.Int("max-configs", 1<<15, "per-run configuration cap; capped runs are skipped")
		corpus       = flag.String("corpus", "", "directory for shrunk reproducers (empty: don't write files)")
		jsonPath     = flag.String("json", "", "write the JSON report here ('-' for stdout)")
		budget       = flag.Duration("budget", 0, "wall-clock time box (0: none)")
		shrinkBudget = flag.Int("shrink-budget", 600, "max candidate evaluations per shrink")
		edits        = flag.Int("edits", 0, "oracle 5: drive an N-step random edit chain per seed through incremental vs from-scratch analysis (replaces oracles 1-4)")
		injectUns    = flag.Bool("inject-unsound", false, "self-test: corrupt the soundness oracle and expect a catch")
		verbose      = flag.Bool("v", false, "log each program")
	)
	flag.Parse()

	profile, ok := progen.ProfileByName(*profileName)
	if !ok {
		fmt.Fprintf(os.Stderr, "psasoak: unknown profile %q\n", *profileName)
		os.Exit(2)
	}

	// An interrupt stops at the next program boundary so the report of
	// everything already checked is still written (same contract as the
	// --budget time box); a second signal kills the process outright.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	start := time.Now()
	names := oracleNames
	if *edits > 0 {
		names = []string{"edits"}
	}
	rep := &report{
		BaseSeed:  *seed,
		Profile:   *profileName,
		Edits:     *edits,
		Requested: *n,
		Oracles:   map[string]*oracleReport{},
	}
	for _, name := range names {
		rep.Oracles[name] = &oracleReport{}
	}

	for i := 0; i < *n; i++ {
		if *budget > 0 && time.Since(start) > *budget {
			if *verbose {
				fmt.Fprintf(os.Stderr, "psasoak: time box reached after %d programs\n", i)
			}
			break
		}
		if ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "psasoak: interrupted after %d programs\n", i)
			break
		}
		s := *seed + int64(i)
		prog, src, err := progen.Generate(s, profile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "psasoak: %v\n", err)
			os.Exit(2)
		}
		var skipped bool
		var checked []string
		var failures []failure
		if *edits > 0 {
			skipped, checked, failures = runEditsOracle(src, s, *edits, *maxConfigs)
		} else {
			skipped, checked, failures = runOracles(prog, *maxConfigs, *injectUns)
		}
		rep.Ran++
		if skipped {
			rep.Skipped++
			if *verbose {
				fmt.Fprintf(os.Stderr, "seed %d: skipped (truncated)\n", s)
			}
			continue
		}
		for _, name := range checked {
			rep.Oracles[name].Checked++
		}
		for _, f := range failures {
			rep.Oracles[f.oracle].Divergences++
			div := divergenceReport{Seed: s, Oracle: f.oracle, Detail: f.detail}
			div.Shrunk = progen.Shrink(src, f.pred, *shrinkBudget)
			if *corpus != "" {
				if err := os.MkdirAll(*corpus, 0o755); err != nil {
					fmt.Fprintf(os.Stderr, "psasoak: %v\n", err)
					os.Exit(2)
				}
				path := filepath.Join(*corpus, fmt.Sprintf("soak-%d-%s.cb", s, f.oracle))
				if err := os.WriteFile(path, []byte(div.Shrunk), 0o644); err != nil {
					fmt.Fprintf(os.Stderr, "psasoak: %v\n", err)
					os.Exit(2)
				}
				div.Reproducer = path
			}
			rep.Divergences = append(rep.Divergences, div)
			fmt.Fprintf(os.Stderr, "seed %d: %s divergence: %s\n", s, f.oracle, f.detail)
		}
		if *verbose && len(failures) == 0 {
			fmt.Fprintf(os.Stderr, "seed %d: ok\n", s)
		}
	}
	rep.DurationSec = time.Since(start).Seconds()

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "psasoak: %v\n", err)
		os.Exit(2)
	}
	switch *jsonPath {
	case "":
		fmt.Printf("psasoak: %d programs (%d skipped), %d divergences in %.1fs\n",
			rep.Ran, rep.Skipped, len(rep.Divergences), rep.DurationSec)
		for _, name := range names {
			o := rep.Oracles[name]
			fmt.Printf("  %-12s checked=%d divergences=%d\n", name, o.Checked, o.Divergences)
		}
	case "-":
		fmt.Println(string(out))
	default:
		if err := os.WriteFile(*jsonPath, append(out, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "psasoak: %v\n", err)
			os.Exit(2)
		}
	}
	if len(rep.Divergences) > 0 {
		os.Exit(1)
	}
}

// runOracles runs all four oracles on one program. skipped means some
// baseline run hit the configuration cap, so no oracle was evaluated;
// checked lists the oracles that ran to completion.
func runOracles(prog *lang.Program, maxConfigs int, injectUnsound bool) (skipped bool, checked []string, failures []failure) {
	ro := pipeline.RunOptions{MaxConfigs: maxConfigs}
	full := pipeline.Explore(prog, ro)
	abs := pipeline.Analyze(prog, ro, nil)
	if full.Truncated || abs.Truncated {
		return true, nil, nil
	}

	// Oracle 1: concrete-vs-abstract soundness.
	checked = append(checked, "soundness")
	if f, ok := soundnessCheck(prog, full, abs, ro, injectUnsound); !ok {
		failures = append(failures, f)
	}

	// Oracle 2: reduced-vs-full and coarsened-vs-full result equivalence.
	checked = append(checked, "reduction")
	base := full.TerminalStoreSet()
	for _, alt := range []struct {
		name string
		ro   pipeline.RunOptions
	}{
		{"stubborn", ro.Strategy(explore.Stubborn, false)},
		{"coarsened", ro.Strategy(explore.Full, true)},
	} {
		alt := alt
		res := pipeline.Explore(prog, alt.ro)
		if res.Truncated {
			continue // cap hit only under the variant: no verdict
		}
		if !equalSets(base, res.TerminalStoreSet()) {
			failures = append(failures, failure{
				oracle: "reduction",
				detail: fmt.Sprintf("%s exploration changes the terminal store set (%d vs %d entries)",
					alt.name, len(res.TerminalStoreSet()), len(base)),
				pred: reductionPred(alt.ro, ro),
			})
		}
	}

	// Oracle 3: parallel-vs-inline bit-identity for both engines.
	checked = append(checked, "parallel")
	for _, w := range []int{1, 4, -1} {
		roW := ro
		roW.Workers = w
		par := pipeline.Explore(prog, roW)
		if d := concreteDiff(full, par); d != "" {
			failures = append(failures, failure{
				oracle: "parallel",
				detail: fmt.Sprintf("concrete engine at workers=%d: %s", w, d),
				pred:   parallelConcretePred(ro, w),
			})
		}
		parAbs := pipeline.Analyze(prog, roW, nil)
		if d := abstractDiff(abs, parAbs); d != "" {
			failures = append(failures, failure{
				oracle: "parallel",
				detail: fmt.Sprintf("abstract engine at workers=%d: %s", w, d),
				pred:   parallelAbstractPred(ro, w),
			})
		}
	}

	// Oracle 4: fingerprint-vs-exact-keys identity.
	checked = append(checked, "fingerprint")
	roE := ro
	roE.ExactKeys = true
	exact := pipeline.Explore(prog, roE)
	if !exact.Truncated {
		if exact.States != full.States || !equalSets(base, exact.TerminalStoreSet()) {
			failures = append(failures, failure{
				oracle: "fingerprint",
				detail: fmt.Sprintf("exact keys: %d states vs %d fingerprinted", exact.States, full.States),
				pred:   fingerprintPred(ro),
			})
		}
	}
	return false, checked, failures
}

// soundnessCheck verifies every concrete terminal against the abstract
// result (or, when injecting, against the deliberately wrong store that
// claims all globals keep their initializers).
func soundnessCheck(prog *lang.Program, full *explore.Result, abs *abssem.Result, ro pipeline.RunOptions, inject bool) (failure, bool) {
	aopts := ro.AbstractOptions()
	check := func(p *lang.Program, conc *explore.Result, res *abssem.Result) error {
		if inject {
			corrupted := corruptStore(p, res)
			for _, c := range sortedTerminals(conc) {
				if c.Err != "" {
					continue
				}
				if err := abssem.StoreCovers(corrupted, c, aopts); err != nil {
					return err
				}
			}
			return nil
		}
		for _, c := range sortedTerminals(conc) {
			if err := res.Covers(c, aopts); err != nil {
				return err
			}
		}
		return nil
	}
	if err := check(prog, full, abs); err != nil {
		return failure{
			oracle: "soundness",
			detail: err.Error(),
			pred: func(p *lang.Program) bool {
				conc := pipeline.Explore(p, ro)
				res := pipeline.Analyze(p, ro, nil)
				if conc.Truncated || res.Truncated {
					return false
				}
				return check(p, conc, res) != nil
			},
		}, false
	}
	return failure{}, true
}

// corruptStore is the injected unsoundness: an abstract store claiming
// every global permanently holds its initial value.
func corruptStore(prog *lang.Program, abs *abssem.Result) *absdom.Store {
	dom := absdom.NumDomain(absdom.ConstDomain{})
	if abs.Terminal != nil {
		dom = abs.Terminal.Domain()
	}
	inits := make([]int64, len(prog.Globals))
	for i, g := range prog.Globals {
		inits[i] = g.Init
	}
	return absdom.NewStore(dom, inits)
}

func reductionPred(alt, base pipeline.RunOptions) func(*lang.Program) bool {
	return func(p *lang.Program) bool {
		full := pipeline.Explore(p, base)
		res := pipeline.Explore(p, alt)
		if full.Truncated || res.Truncated {
			return false
		}
		return !equalSets(full.TerminalStoreSet(), res.TerminalStoreSet())
	}
}

func parallelConcretePred(base pipeline.RunOptions, workers int) func(*lang.Program) bool {
	return func(p *lang.Program) bool {
		seq := pipeline.Explore(p, base)
		roW := base
		roW.Workers = workers
		par := pipeline.Explore(p, roW)
		if seq.Truncated {
			return false
		}
		return concreteDiff(seq, par) != ""
	}
}

func parallelAbstractPred(base pipeline.RunOptions, workers int) func(*lang.Program) bool {
	return func(p *lang.Program) bool {
		seq := pipeline.Analyze(p, base, nil)
		roW := base
		roW.Workers = workers
		par := pipeline.Analyze(p, roW, nil)
		if seq.Truncated {
			return false
		}
		return abstractDiff(seq, par) != ""
	}
}

func fingerprintPred(base pipeline.RunOptions) func(*lang.Program) bool {
	return func(p *lang.Program) bool {
		full := pipeline.Explore(p, base)
		roE := base
		roE.ExactKeys = true
		exact := pipeline.Explore(p, roE)
		if full.Truncated || exact.Truncated {
			return false
		}
		return exact.States != full.States ||
			!equalSets(full.TerminalStoreSet(), exact.TerminalStoreSet())
	}
}

// concreteDiff compares two concrete results under the explorer's
// determinism contract ("" when identical).
func concreteDiff(a, b *explore.Result) string {
	switch {
	case a.Truncated != b.Truncated:
		return fmt.Sprintf("truncated %v vs %v", a.Truncated, b.Truncated)
	case a.States != b.States:
		return fmt.Sprintf("states %d vs %d", a.States, b.States)
	case a.Edges != b.Edges:
		return fmt.Sprintf("edges %d vs %d", a.Edges, b.Edges)
	case len(a.Errors) != len(b.Errors):
		return fmt.Sprintf("errors %d vs %d", len(a.Errors), len(b.Errors))
	case !equalSets(a.TerminalStoreSet(), b.TerminalStoreSet()):
		return "terminal store sets differ"
	}
	return ""
}

// abstractDiff compares two abstract results ("" when identical).
func abstractDiff(a, b *abssem.Result) string {
	switch {
	case a.Truncated != b.Truncated:
		return fmt.Sprintf("truncated %v vs %v", a.Truncated, b.Truncated)
	case a.States != b.States:
		return fmt.Sprintf("states %d vs %d", a.States, b.States)
	case a.Visits != b.Visits:
		return fmt.Sprintf("visits %d vs %d", a.Visits, b.Visits)
	case a.TerminalCount != b.TerminalCount:
		return fmt.Sprintf("terminal count %d vs %d", a.TerminalCount, b.TerminalCount)
	case a.MayError != b.MayError:
		return fmt.Sprintf("may-error %v vs %v", a.MayError, b.MayError)
	case (a.Terminal == nil) != (b.Terminal == nil):
		return "terminal store presence differs"
	case a.Terminal != nil && !a.Terminal.Eq(b.Terminal):
		return "terminal stores differ"
	}
	return ""
}

// sortedTerminals returns the terminal configurations in canonical-key
// order (map iteration is not deterministic).
func sortedTerminals(r *explore.Result) []*sem.Config {
	keys := make([]string, 0, len(r.Terminals))
	byKey := make(map[string]*sem.Config, len(r.Terminals))
	for k, c := range r.Terminals {
		keys = append(keys, string(k))
		byKey[string(k)] = c
	}
	sort.Strings(keys)
	out := make([]*sem.Config, 0, len(keys))
	for _, k := range keys {
		out = append(out, byKey[k])
	}
	return out
}

func equalSets(a, b []string) bool {
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
