package explore

import (
	"reflect"
	"testing"

	"psa/internal/lang"
	"psa/internal/workloads"
)

// OutcomeSet with an empty label list projects every non-error terminal
// onto the empty tuple: one entry when any clean terminal exists — the
// degenerate "did it terminate at all" query — never one entry per
// terminal.
func TestOutcomeSetEmptyLabelList(t *testing.T) {
	res := Explore(workloads.Fig2(), Options{Reduction: Full})
	outs := res.OutcomeSet()
	if len(outs) != 1 || len(outs[0]) != 0 {
		t.Fatalf("OutcomeSet() = %v, want exactly one empty tuple", outs)
	}

	// A program whose only terminals are errors has no clean outcome.
	errProg := lang.MustParse(`
var g;
func main() { g = 1 / 0; }
`)
	errRes := Explore(errProg, Options{Reduction: Full})
	if len(errRes.Errors) == 0 {
		t.Fatal("division by zero produced no error terminal")
	}
	if outs := errRes.OutcomeSet(); len(outs) != 0 {
		t.Fatalf("OutcomeSet() over error-only terminals = %v, want empty", outs)
	}
}

// Unknown labels project to the zero value in every tuple, so all-unknown
// projections collapse the terminal set to a single zero tuple instead of
// panicking or dropping terminals.
func TestOutcomeSetUnknownLabels(t *testing.T) {
	res := Explore(workloads.Fig2(), Options{Reduction: Full})
	outs := res.OutcomeSet("no_such_global", "also_missing")
	if !reflect.DeepEqual(outs, [][]int64{{0, 0}}) {
		t.Fatalf("OutcomeSet(unknown...) = %v, want [[0 0]]", outs)
	}

	// Mixed known/unknown: the known column keeps its real values, the
	// unknown column is uniformly zero.
	mixed := res.OutcomeSet("x", "no_such_global")
	known := res.OutcomeSet("x")
	if len(mixed) != len(known) {
		t.Fatalf("mixed projection has %d tuples, known-only has %d", len(mixed), len(known))
	}
	for i, tup := range mixed {
		if tup[0] != known[i][0] || tup[1] != 0 {
			t.Errorf("mixed tuple %d = %v, want [%d 0]", i, tup, known[i][0])
		}
	}
}

// A MaxConfigs-truncated run must flag itself, and its partial terminal
// artifacts must stay coherent: a subset of the full run's sets, never
// phantom outcomes the full space does not contain. The same coherence
// must hold for the parallel explorer — its own chain runs ahead of the
// merge and inserts identities past the cut, so this pins that the
// over-insertion never surfaces as Result artifacts.
func TestTruncatedRunArtifacts(t *testing.T) {
	prog := workloads.Philosophers(3)
	full := Explore(prog, Options{Reduction: Full})
	if full.Truncated {
		t.Fatal("reference run unexpectedly truncated")
	}
	fullStores := map[string]bool{}
	for _, k := range full.TerminalStoreSet() {
		fullStores[k] = true
	}
	fullOuts := map[string]bool{}
	for _, o := range full.OutcomeSet("fork0", "meals0") {
		fullOuts[outKey(o)] = true
	}

	seqCut := Explore(prog, Options{Reduction: Full, MaxConfigs: 50})
	cuts := map[string]*Result{
		"sequential": seqCut,
		"workers-4":  Explore(prog, Options{Reduction: Full, MaxConfigs: 50, Workers: 4}),
	}
	for name, cut := range cuts {
		if !cut.Truncated {
			t.Fatalf("%s: MaxConfigs=50 run not flagged truncated", name)
		}
		if cut.States > 50 {
			t.Errorf("%s: truncated run has %d states, cap was 50", name, cut.States)
		}
		if cut.States != seqCut.States || cut.Edges != seqCut.Edges {
			t.Errorf("%s: truncated run %d/%d != inline cut %d/%d",
				name, cut.States, cut.Edges, seqCut.States, seqCut.Edges)
		}
		for _, k := range cut.TerminalStoreSet() {
			if !fullStores[k] {
				t.Errorf("%s: truncated run invented terminal store %q", name, k)
			}
		}
		for _, o := range cut.OutcomeSet("fork0", "meals0") {
			if !fullOuts[outKey(o)] {
				t.Errorf("%s: truncated run invented outcome %v", name, o)
			}
		}
	}
}

func outKey(o []int64) string {
	b := make([]byte, 0, 16*len(o))
	for _, v := range o {
		for i := 0; i < 8; i++ {
			b = append(b, byte(v>>(56-8*i)))
		}
	}
	return string(b)
}
