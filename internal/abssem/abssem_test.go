package abssem

import (
	"fmt"
	"testing"

	"psa/internal/absdom"
	"psa/internal/explore"
	"psa/internal/lang"
	"psa/internal/progen"
	"psa/internal/pstring"
	"psa/internal/sem"
	"psa/internal/workloads"
)

func analyze(t *testing.T, prog *lang.Program, opts Options) *Result {
	t.Helper()
	res := Analyze(prog, opts)
	if res.Truncated {
		t.Fatalf("abstract interpretation truncated: %s", res)
	}
	return res
}

func TestSequentialConstants(t *testing.T) {
	prog := lang.MustParse(`
var a; var b;
func main() {
  a = 2 + 3;
  b = a * 10;
}
`)
	res := analyze(t, prog, Options{Domain: absdom.ConstDomain{}})
	v, ok := res.GlobalInvariant("a")
	if !ok {
		t.Fatal("no terminal store")
	}
	if c, isC := v.Num.AsConst(); !isC || c != 5 {
		t.Errorf("a = %s, want constant 5", v)
	}
	v, _ = res.GlobalInvariant("b")
	if c, isC := v.Num.AsConst(); !isC || c != 50 {
		t.Errorf("b = %s, want constant 50", v)
	}
	if res.MayError {
		t.Error("spurious may-error on straight-line constants")
	}
}

func TestBranchJoin(t *testing.T) {
	prog := lang.MustParse(`
var in; var out;
func main() {
  cobegin { in = 1; } || { in = 2; } coend
  if in > 1 { out = 1; } else { out = 2; }
}
`)
	res := analyze(t, prog, Options{Domain: absdom.ConstDomain{}})
	v, _ := res.GlobalInvariant("out")
	if !v.CoversInt(1) || !v.CoversInt(2) {
		t.Errorf("out = %s, must cover both 1 and 2", v)
	}
}

func TestBranchConstantPruned(t *testing.T) {
	prog := lang.MustParse(`
var in; var out;
func main() {
  if in > 0 { out = 1; } else { out = 2; }
}
`)
	// in is the constant 0: only the else branch is feasible.
	res := analyze(t, prog, Options{Domain: absdom.ConstDomain{}})
	v, _ := res.GlobalInvariant("out")
	if c, isC := v.Num.AsConst(); !isC || c != 2 {
		t.Errorf("out = %s, want exactly 2", v)
	}
}

func TestBranchPruning(t *testing.T) {
	prog := lang.MustParse(`
var out;
func main() {
  var c = 1;
  if c > 0 { out = 10; } else { out = 20; }
}
`)
	res := analyze(t, prog, Options{Domain: absdom.ConstDomain{}})
	v, _ := res.GlobalInvariant("out")
	if c, isC := v.Num.AsConst(); !isC || c != 10 {
		t.Errorf("out = %s, want exactly 10 (dead branch pruned)", v)
	}
}

func TestLoopWideningInterval(t *testing.T) {
	prog := lang.MustParse(`
var n;
func main() {
  var i = 0;
  while i < 10 { i = i + 1; }
  n = i;
}
`)
	res := analyze(t, prog, Options{Domain: absdom.IntervalDomain{}})
	v, ok := res.GlobalInvariant("n")
	if !ok {
		t.Fatal("interval analysis did not terminate with a result")
	}
	if !v.CoversInt(10) {
		t.Errorf("n = %s, must cover 10", v)
	}
	if v.CoversInt(-1) {
		t.Errorf("n = %s covers -1; lower bound lost", v)
	}
}

func TestCallsAndRecursionHavoc(t *testing.T) {
	prog := lang.MustParse(`
var r;
func fact(k) {
  if k <= 1 { return 1; }
  var sub = fact(k - 1);
  return k * sub;
}
func main() { r = fact(6); }
`)
	res := analyze(t, prog, Options{Domain: absdom.ConstDomain{}, RecLimit: 2})
	v, ok := res.GlobalInvariant("r")
	if !ok {
		t.Fatal("no result")
	}
	if !v.CoversInt(720) {
		t.Errorf("r = %s, must cover 720 (havoc must go to ⊤, not drop values)", v)
	}
}

func TestPointsToGlobals(t *testing.T) {
	prog := lang.MustParse(`
var g; var out;
func main() {
  var p = &g;
  *p = 7;
  out = *p;
}
`)
	res := analyze(t, prog, Options{Domain: absdom.ConstDomain{}})
	v, _ := res.GlobalInvariant("out")
	if c, isC := v.Num.AsConst(); !isC || c != 7 {
		t.Errorf("out = %s, want exactly 7 (strong update through unique pointer)", v)
	}
}

func TestHeapSummaries(t *testing.T) {
	prog := lang.MustParse(`
var out;
func main() {
  var p = malloc(1);
  *p = 42;
  out = *p;
}
`)
	res := analyze(t, prog, Options{Domain: absdom.ConstDomain{}})
	v, _ := res.GlobalInvariant("out")
	// Heap summaries are weak: 42 must be covered; undef may remain.
	if !v.CoversInt(42) {
		t.Errorf("out = %s, must cover 42", v)
	}
}

func TestCobeginInterleavingCovered(t *testing.T) {
	res := analyze(t, workloads.Fig2(), Options{Domain: absdom.ConstDomain{}})
	for _, name := range []string{"x", "y"} {
		v, ok := res.GlobalInvariant(name)
		if !ok {
			t.Fatal("no terminal store")
		}
		if !v.CoversInt(0) || !v.CoversInt(1) {
			t.Errorf("%s = %s, must cover 0 and 1", name, v)
		}
	}
}

func TestAssertMayFail(t *testing.T) {
	prog := lang.MustParse(`
var g;
func main() {
  cobegin { g = 1; } || { g = 2; } coend
  assert g == 1;
}
`)
	res := analyze(t, prog, Options{Domain: absdom.ConstDomain{}})
	if !res.MayError {
		t.Error("assert can fail; MayError should be set")
	}
}

func TestAssertNeverFails(t *testing.T) {
	prog := lang.MustParse(`
var g;
func main() {
  g = 5;
  assert g == 5;
}
`)
	res := analyze(t, prog, Options{Domain: absdom.ConstDomain{}})
	if res.MayError {
		t.Error("assert provably holds; MayError should be clear")
	}
}

func TestTaylorFoldingReducesVsConcrete(t *testing.T) {
	// Folded (abstract) configuration count vs concrete exploration on the
	// paper's Figure 3/5 program.
	prog := workloads.Fig5Malloc()
	conc := explore.Explore(prog, explore.Options{Reduction: explore.Full})
	abs := analyze(t, prog, Options{Domain: absdom.ConstDomain{}})
	if abs.States >= conc.States {
		t.Errorf("abstract states %d not below concrete %d", abs.States, conc.States)
	}
}

func TestClanFoldingReduces(t *testing.T) {
	prog := workloads.ClanWorkers(4)
	plain := analyze(t, prog, Options{Domain: absdom.ConstDomain{}})
	clan := analyze(t, prog, Options{Domain: absdom.ConstDomain{}, ClanFold: true})
	if clan.States >= plain.States {
		t.Errorf("clan folding did not reduce: %d vs %d", clan.States, plain.States)
	}
	// Soundness: the clan run must still cover the possible final values.
	v, ok := clan.GlobalInvariant("counter")
	if !ok {
		t.Fatal("no terminal store under clan folding")
	}
	for _, n := range []int64{1, 2, 3, 4} {
		if !v.CoversInt(n) {
			t.Errorf("clan-folded counter = %s, must cover %d", v, n)
		}
	}
}

func TestClanFoldingScalesFlat(t *testing.T) {
	s4 := analyze(t, workloads.ClanWorkers(4), Options{Domain: absdom.ConstDomain{}, ClanFold: true})
	s8 := analyze(t, workloads.ClanWorkers(8), Options{Domain: absdom.ConstDomain{}, ClanFold: true})
	if s8.States != s4.States {
		t.Errorf("identical-arm clans should fold to the same abstract space: n=4 %d vs n=8 %d",
			s4.States, s8.States)
	}
}

// coversConcrete checks γ-membership of a concrete terminal value.
func coversConcrete(cfg *sem.Config, av absdom.Value, cv sem.Value, k int) error {
	switch cv.Kind {
	case sem.KindUndef:
		if !av.CoversUndef() {
			return fmt.Errorf("abstract %s misses undef", av)
		}
	case sem.KindInt:
		if !av.CoversInt(cv.N) {
			return fmt.Errorf("abstract %s misses %d", av, cv.N)
		}
	case sem.KindFn:
		if !av.CoversFn(cv.Fn) {
			return fmt.Errorf("abstract %s misses fn%d", av, cv.Fn)
		}
	case sem.KindPtr:
		var target absdom.Target
		if cv.Ptr.Space == sem.SpaceGlobal {
			target = absdom.Target{Index: cv.Ptr.Base}
		} else {
			obj := cfg.Heap[cv.Ptr.Base]
			if obj == nil {
				return nil // dangling: no obligation
			}
			target = absdom.Target{Heap: true, Site: obj.Site, Birth: pstring.Abstract(obj.Birth, k)}
		}
		if !av.CoversPtrTarget(target) {
			return fmt.Errorf("abstract %s misses pointer to %s", av, target)
		}
	}
	return nil
}

// The central soundness property: every concrete terminal store is
// γ-covered by the abstract terminal store, in every domain, on a corpus
// of random programs.
func TestDifferentialSoundness(t *testing.T) {
	if testing.Short() {
		t.Skip("differential corpus in -short mode")
	}
	domains := []absdom.NumDomain{absdom.ConstDomain{}, absdom.SignDomain{}, absdom.IntervalDomain{}}
	for seed := int64(0); seed < 48; seed++ {
		prog, _, err := progen.Generate(seed, progen.CorpusProfile())
		if err != nil {
			t.Fatal(err)
		}
		conc := explore.Explore(prog, explore.Options{Reduction: explore.Full, MaxConfigs: 1 << 17})
		if conc.Truncated {
			continue
		}
		concreteErr := len(conc.Errors) > 0
		for _, d := range domains {
			for _, clan := range []bool{false, true} {
				res := Analyze(prog, Options{Domain: d, ClanFold: clan})
				if res.Truncated {
					t.Errorf("seed %d %s clan=%v: truncated", seed, d.Name(), clan)
					continue
				}
				if concreteErr && !res.MayError {
					t.Errorf("seed %d %s clan=%v: concrete error exists but MayError=false\n%s",
						seed, d.Name(), clan, lang.Format(prog))
				}
				if res.Terminal == nil {
					hasNonErr := false
					for _, c := range conc.Terminals {
						if c.Err == "" {
							hasNonErr = true
						}
					}
					if hasNonErr {
						t.Errorf("seed %d %s clan=%v: concrete terminals exist but abstract has none",
							seed, d.Name(), clan)
					}
					continue
				}
				for _, cfg := range conc.Terminals {
					if cfg.Err != "" {
						continue
					}
					for gi := range prog.Globals {
						if err := coversConcrete(cfg, res.Terminal.Global(gi), cfg.Globals[gi], 2); err != nil {
							t.Errorf("seed %d %s clan=%v: global %s: %v\n%s",
								seed, d.Name(), clan, prog.Globals[gi].Name, err, lang.Format(prog))
						}
					}
				}
			}
		}
	}
}

func TestBusyWaitAbstractTerminates(t *testing.T) {
	res := analyze(t, workloads.BusyWait(), Options{Domain: absdom.ConstDomain{}})
	v, ok := res.GlobalInvariant("out")
	if !ok {
		t.Fatal("busy-wait did not reach an abstract terminal")
	}
	if !v.CoversInt(42) {
		t.Errorf("out = %s, must cover 42", v)
	}
}

func TestDomainPrecisionOrdering(t *testing.T) {
	// On a loop with a positive step, sign keeps "non-negative" while
	// const gives ⊤ — both must cover the concrete result.
	prog := lang.MustParse(`
var n;
func main() {
  var i = 0;
  while i < 3 { i = i + 1; }
  n = i;
}
`)
	cRes := analyze(t, prog, Options{Domain: absdom.ConstDomain{}})
	sRes := analyze(t, prog, Options{Domain: absdom.SignDomain{}})
	cv, _ := cRes.GlobalInvariant("n")
	sv, _ := sRes.GlobalInvariant("n")
	if !cv.CoversInt(3) || !sv.CoversInt(3) {
		t.Errorf("both domains must cover 3: const=%s sign=%s", cv, sv)
	}
	if sv.CoversInt(-1) {
		t.Errorf("sign lost non-negativity: %s", sv)
	}
}

func TestFirstClassFunctionDispatch(t *testing.T) {
	prog := lang.MustParse(`
var r;
func inc(x) { return x + 1; }
func dec(x) { return x - 1; }
func apply(f, v) { var out = f(v); return out; }
func main() {
  cobegin { r = 0; } || { r = 1; } coend
  var g = inc;
  if r == 0 { g = dec; }
  r = apply(g, 10);
}
`)
	res := analyze(t, prog, Options{Domain: absdom.ConstDomain{}})
	v, ok := res.GlobalInvariant("r")
	if !ok {
		t.Fatal("no result")
	}
	if !v.CoversInt(11) || !v.CoversInt(9) {
		t.Errorf("r = %s, must cover both 11 and 9 (both callees)", v)
	}
}

func TestUnreachableDeadBranch(t *testing.T) {
	prog := lang.MustParse(`
var out;
func main() {
  var c = 1;
  if c > 0 { out = 10; } else { dead: out = 20; }
  after: out = out + 1;
}
`)
	res := analyze(t, prog, Options{Domain: absdom.ConstDomain{}})
	un := res.Unreachable()
	found := false
	for _, s := range un {
		if s.Label() == "dead" {
			found = true
		}
		if s.Label() == "after" {
			t.Error("live statement reported unreachable")
		}
	}
	if !found {
		t.Errorf("dead else branch not reported; unreachable = %d stmts", len(un))
	}
}

func TestUnreachableUncalledFunction(t *testing.T) {
	prog := lang.MustParse(`
var out;
func never() { n1: out = 99; return 0; }
func main() { out = 1; }
`)
	res := analyze(t, prog, Options{Domain: absdom.ConstDomain{}})
	found := false
	for _, s := range res.Unreachable() {
		if s.Label() == "n1" {
			found = true
		}
	}
	if !found {
		t.Error("body of uncalled function not reported unreachable")
	}
}

func TestUnreachableEmptyOnFullCoverage(t *testing.T) {
	prog := lang.MustParse(`
var a;
func main() {
  cobegin { a = 1; } || { a = 2; } coend
  if a == 1 { a = 3; } else { a = 4; }
}
`)
	res := analyze(t, prog, Options{Domain: absdom.ConstDomain{}})
	if un := res.Unreachable(); len(un) != 0 {
		t.Errorf("everything is reachable here; got %d unreachable stmts (first at %s)",
			len(un), un[0].NodePos())
	}
}
