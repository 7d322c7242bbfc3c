package progen

import (
	"strings"
	"testing"

	"psa/internal/explore"
	"psa/internal/lang"
	"psa/internal/sem"
)

// propertySeeds is the seed count the generator properties sweep. 1000
// seeds take well under a second per property; -short quarters it.
func propertySeeds(t *testing.T) int64 {
	if testing.Short() {
		return 250
	}
	return 1000
}

func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		a := GenerateSource(seed, DefaultProfile())
		b := GenerateSource(seed, DefaultProfile())
		if a != b {
			t.Fatalf("seed %d: two generations differ", seed)
		}
	}
	if GenerateSource(1, DefaultProfile()) == GenerateSource(2, DefaultProfile()) {
		t.Fatal("seeds 1 and 2 generated identical programs")
	}
}

// Every generated program must parse + resolve, and its printed form must
// round-trip: parse(print(p)) prints identically. This is the property
// that makes generated programs valid seeds for the parser fuzz targets.
func TestGeneratedProgramsRoundTrip(t *testing.T) {
	profiles := []Profile{DefaultProfile(), SmallProfile(), CorpusProfile(), BigProfile()}
	n := propertySeeds(t)
	for _, prof := range profiles {
		for seed := int64(0); seed < n; seed++ {
			prog, src, err := Generate(seed, prof)
			if err != nil {
				t.Fatalf("profile %q seed %d: %v\n%s", prof.Name(), seed, err, src)
			}
			text := lang.Format(prog)
			again, err := lang.Parse(text)
			if err != nil {
				t.Fatalf("profile %q seed %d: printed form does not reparse: %v\n%s",
					prof.Name(), seed, err, text)
			}
			if got := lang.Format(again); got != text {
				t.Fatalf("profile %q seed %d: print→parse→print not stable:\n--- first\n%s\n--- second\n%s",
					prof.Name(), seed, text, got)
			}
		}
	}
}

// Generated programs must terminate under the deterministic scheduler —
// loops count down read-only locals and recursion is constant-bounded, so
// a step-budget blowout is a generator bug.
func TestGeneratedProgramsTerminate(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		prog, src, err := Generate(seed, DefaultProfile())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sem.Run(prog, 200_000); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
	}
}

// Profile knobs are hard bounds: declared counts are exact, and arm
// counts, loop bounds, and per-function cobegin totals stay inside the
// profile across the sweep.
func TestProfileKnobsRespected(t *testing.T) {
	prof := DefaultProfile()
	n := propertySeeds(t)
	for seed := int64(0); seed < n; seed++ {
		prog, src, err := Generate(seed, prof)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := len(prog.Globals), prof.Globals+prof.PtrGlobals; got != want {
			t.Fatalf("seed %d: %d globals, want %d", seed, got, want)
		}
		if got, want := len(prog.Funcs), prof.ValueFuncs+prof.VoidFuncs+1; got != want {
			t.Fatalf("seed %d: %d funcs, want %d", seed, got, want)
		}
		for _, f := range prog.Funcs {
			cobegins := 0
			lang.WalkStmts(f.Body, func(s lang.Stmt) {
				switch s := s.(type) {
				case *lang.CobeginStmt:
					cobegins++
					if len(s.Arms) < 2 || len(s.Arms) > prof.MaxArms {
						t.Fatalf("seed %d: cobegin with %d arms (max %d)\n%s",
							seed, len(s.Arms), prof.MaxArms, src)
					}
				case *lang.WhileStmt:
					// Countdown template: "while i > 0" over a counter
					// initialized to a literal ≤ MaxLoopIter.
					cmp, ok := s.Cond.(*lang.BinaryExpr)
					if !ok || cmp.Op != lang.TokGt {
						t.Fatalf("seed %d: loop condition %q is not a countdown",
							seed, lang.ExprString(s.Cond))
					}
				}
			})
			budget := prof.CobeginBudget
			if f.Name == "main" && budget < 1 {
				budget = 1 // main always gets its spine cobegin
			}
			if cobegins > budget {
				t.Fatalf("seed %d: %s has %d cobegins, budget %d\n%s",
					seed, f.Name, cobegins, budget, src)
			}
		}
		// Loop bounds: every generated counter initializer is a literal
		// within MaxLoopIter.
		for _, line := range strings.Split(src, "\n") {
			line = strings.TrimSpace(line)
			if strings.HasPrefix(line, "var i") && strings.Contains(line, "= ") {
				// var iN = K;
				k := strings.TrimSuffix(line[strings.Index(line, "= ")+2:], ";")
				if len(k) == 1 && (k[0] < '1' || int(k[0]-'0') > prof.MaxLoopIter) {
					t.Fatalf("seed %d: loop bound %q outside 1..%d", seed, k, prof.MaxLoopIter)
				}
			}
		}
	}
}

// Across the sweep, every language construct must be reachable: the
// generator is only a useful differential driver if it exercises the
// whole surface.
func TestAllConstructsReachable(t *testing.T) {
	seen := map[string]bool{}
	n := propertySeeds(t)
	for seed := int64(0); seed < n; seed++ {
		prog, _, err := Generate(seed, DefaultProfile())
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range prog.Funcs {
			lang.WalkStmts(f.Body, func(s lang.Stmt) {
				switch s.(type) {
				case *lang.CobeginStmt:
					seen["cobegin"] = true
				case *lang.IfStmt:
					seen["if"] = true
				case *lang.WhileStmt:
					seen["while"] = true
				case *lang.CallStmt:
					seen["call"] = true
				case *lang.AssertStmt:
					seen["assert"] = true
				case *lang.FreeStmt:
					seen["free"] = true
				case *lang.SkipStmt:
					seen["skip"] = true
				case *lang.ReturnStmt:
					seen["return"] = true
				case *lang.VarStmt:
					seen["var"] = true
				case *lang.AssignStmt:
					seen["assign"] = true
				}
				if s.Label() != "" {
					seen["label"] = true
				}
				lang.WalkExprs(s, func(e lang.Expr) {
					switch e.(type) {
					case *lang.MallocExpr:
						seen["malloc"] = true
					case *lang.DerefExpr:
						seen["deref"] = true
					case *lang.AddrExpr:
						seen["addrof"] = true
					case *lang.UnaryExpr:
						seen["unary"] = true
					case *lang.BinaryExpr:
						seen["binary"] = true
					case *lang.CallExpr:
						seen["callexpr"] = true
					}
				})
			})
		}
		// Nested cobegin (deep parallelism) must be reachable too.
		for _, f := range prog.Funcs {
			lang.WalkStmts(f.Body, func(s lang.Stmt) {
				if cb, ok := s.(*lang.CobeginStmt); ok {
					for _, arm := range cb.Arms {
						lang.WalkStmts(arm, func(inner lang.Stmt) {
							if _, ok := inner.(*lang.CobeginStmt); ok {
								seen["nested-cobegin"] = true
							}
						})
					}
				}
			})
		}
	}
	want := []string{
		"cobegin", "nested-cobegin", "if", "while", "call", "assert", "free",
		"skip", "return", "var", "assign", "label",
		"malloc", "deref", "addrof", "unary", "binary", "callexpr",
	}
	for _, w := range want {
		if !seen[w] {
			t.Errorf("construct %q never generated across %d seeds", w, n)
		}
	}
}

// A quick exploration smoke: generated programs must be explorable and
// reduction-safe on a sample (the soak harness runs this at scale).
func TestGeneratedProgramsExplore(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration sweep")
	}
	for seed := int64(0); seed < 15; seed++ {
		prog, src, err := Generate(seed, SmallProfile())
		if err != nil {
			t.Fatal(err)
		}
		full := explore.Explore(prog, explore.Options{MaxConfigs: 1 << 16})
		if full.Truncated {
			continue // size cap is the soak driver's skip path, not a bug
		}
		stub := explore.Explore(prog, explore.Options{Reduction: explore.Stubborn, MaxConfigs: 1 << 16})
		if got, want := stub.TerminalStoreSet(), full.TerminalStoreSet(); !equalStr(got, want) {
			t.Fatalf("seed %d: stubborn diverges from full\n%s", seed, src)
		}
	}
}

func equalStr(a, b []string) bool {
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
