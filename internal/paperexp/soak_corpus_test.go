package paperexp

import (
	"os"
	"path/filepath"
	"testing"

	"psa/internal/abssem"
	"psa/internal/explore"
	"psa/internal/lang"
	"psa/internal/pipeline"
	"psa/internal/sched"
)

// loadSoakCorpus reads the generator-derived programs under
// testdata/soak — shrunk/selected outputs of internal/progen that once
// stressed a specific engine path (deep cobegin nesting, recursion at
// the k-birth limit, allocation under reduction). Keeping them in the
// repo pins those paths as regression tests even when the soak harness
// is not running.
func loadSoakCorpus(t *testing.T) map[string]*lang.Program {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "soak", "*.cb"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no soak corpus found: %v", err)
	}
	progs := make(map[string]*lang.Program, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatalf("read %s: %v", p, err)
		}
		prog, err := lang.Parse(string(data))
		if err != nil {
			t.Fatalf("parse %s: %v", p, err)
		}
		progs[filepath.Base(p)] = prog
	}
	return progs
}

// TestSoakCorpusDifferential runs each corpus program through the same
// four cross-checks as cmd/psasoak: reduced and coarsened exploration
// must agree with full on the terminal-store set, exact keys must agree
// with fingerprints, parallel runs of both engines must be bit-identical
// to sequential, and the abstract result must cover every concrete
// terminal.
func TestSoakCorpusDifferential(t *testing.T) {
	for name, prog := range loadSoakCorpus(t) {
		t.Run(name, func(t *testing.T) {
			ro := pipeline.RunOptions{MaxConfigs: 1 << 14}
			full := pipeline.Explore(prog, ro)
			if full.Truncated {
				t.Fatal("full exploration truncated; raise the corpus cap")
			}
			want := full.TerminalStoreSet()

			// Reduction equivalence.
			for _, v := range []pipeline.RunOptions{
				ro.Strategy(explore.Stubborn, false),
				ro.Strategy(explore.Stubborn, true),
			} {
				res := pipeline.Explore(prog, v)
				if res.Truncated {
					t.Fatalf("%s: truncated", v.Key())
				}
				if !equalStrings(res.TerminalStoreSet(), want) {
					t.Errorf("%s: terminal-store set differs from full", v.Key())
				}
			}

			// Fingerprint-vs-exact-keys identity.
			exact := ro
			exact.ExactKeys = true
			er := pipeline.Explore(prog, exact)
			if er.States != full.States || !equalStrings(er.TerminalStoreSet(), want) {
				t.Errorf("exact keys diverge from fingerprints: %d vs %d states", er.States, full.States)
			}

			// Parallel bit-identity, both engines.
			pool := sched.ForWorkers(4)
			t.Cleanup(pool.Close)
			par := ro
			par.Pool = pool
			pres := pipeline.Explore(prog, par)
			if pres.States != full.States || pres.Edges != full.Edges ||
				!equalStrings(pres.TerminalStoreSet(), want) {
				t.Error("parallel concrete exploration diverges from sequential")
			}
			abs := pipeline.Analyze(prog, ro, nil)
			pabs := pipeline.Analyze(prog, par, nil)
			if abs.Truncated {
				t.Fatal("abstract run truncated; raise the corpus cap")
			}
			if pabs.States != abs.States || pabs.Visits != abs.Visits ||
				pabs.TerminalCount != abs.TerminalCount || pabs.MayError != abs.MayError {
				t.Error("parallel abstract run diverges from sequential")
			}

			// Soundness: every concrete terminal covered abstractly.
			for _, term := range full.Terminals {
				if err := abs.Covers(term, abssem.Options{}); err != nil {
					t.Errorf("terminal not covered: %v", err)
				}
			}
			for _, ec := range full.Errors {
				if err := abs.Covers(ec, abssem.Options{}); err != nil {
					t.Errorf("error terminal not covered: %v", err)
				}
			}
		})
	}
}
