package explore

import (
	"fmt"
	"reflect"
	"testing"

	"psa/internal/lang"
	"psa/internal/progen"
	"psa/internal/sem"
	"psa/internal/workloads"
)

func TestFig2OutcomesFull(t *testing.T) {
	res := Explore(workloads.Fig2(), Options{Reduction: Full})
	got := res.OutcomeSet("x", "y")
	want := [][]int64{{0, 1}, {1, 0}, {1, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("outcomes = %v, want %v (three legal, (0,0) impossible under SC)", got, want)
	}
}

func TestFig2OutcomesPreservedByReductions(t *testing.T) {
	full := Explore(workloads.Fig2(), Options{Reduction: Full})
	for _, opts := range []Options{
		{Reduction: Stubborn},
		{Reduction: Full, Coarsen: true},
		{Reduction: Stubborn, Coarsen: true},
	} {
		res := Explore(workloads.Fig2(), opts)
		if !reflect.DeepEqual(res.OutcomeSet("x", "y"), full.OutcomeSet("x", "y")) {
			t.Errorf("%v: outcomes %v != full %v", opts, res.OutcomeSet("x", "y"), full.OutcomeSet("x", "y"))
		}
		if res.States > full.States {
			t.Errorf("%v: reduction increased states (%d > %d)", opts, res.States, full.States)
		}
	}
}

func TestFig5StubbornReduces(t *testing.T) {
	full := Explore(workloads.Fig5Malloc(), Options{Reduction: Full})
	stub := Explore(workloads.Fig5Malloc(), Options{Reduction: Stubborn})
	if stub.States >= full.States {
		t.Errorf("stubborn %d states, full %d: expected a reduction", stub.States, full.States)
	}
	if got, want := stub.TerminalStoreSet(), full.TerminalStoreSet(); !reflect.DeepEqual(got, want) {
		t.Errorf("result-configurations differ:\nstubborn: %v\nfull: %v", got, want)
	}
}

func TestPhilosophersScaling(t *testing.T) {
	prevFull, prevStub := 0, 0
	for n := 2; n <= 4; n++ {
		full := Explore(workloads.Philosophers(n), Options{Reduction: Full, MaxConfigs: 1 << 22})
		stub := Explore(workloads.Philosophers(n), Options{Reduction: Stubborn, Coarsen: true, MaxConfigs: 1 << 22})
		if full.Truncated || stub.Truncated {
			t.Fatalf("n=%d truncated", n)
		}
		if stub.States >= full.States && n >= 3 {
			t.Errorf("n=%d: stubborn %d >= full %d", n, stub.States, full.States)
		}
		if !reflect.DeepEqual(stub.TerminalStoreSet(), full.TerminalStoreSet()) {
			t.Errorf("n=%d: result-configurations differ", n)
		}
		if n > 2 {
			// Full must blow up much faster than stubborn.
			fullGrowth := float64(full.States) / float64(prevFull)
			stubGrowth := float64(stub.States) / float64(prevStub)
			if stubGrowth >= fullGrowth {
				t.Errorf("n=%d: stubborn growth %.2f not below full growth %.2f", n, stubGrowth, fullGrowth)
			}
		}
		prevFull, prevStub = full.States, stub.States
	}
}

func TestCoarseningReduces(t *testing.T) {
	prog := workloads.IndependentWorkers(2, 4)
	plain := Explore(prog, Options{Reduction: Full})
	coarse := Explore(prog, Options{Reduction: Full, Coarsen: true})
	if coarse.States >= plain.States {
		t.Errorf("coarsening did not reduce states: %d vs %d", coarse.States, plain.States)
	}
	if !reflect.DeepEqual(coarse.TerminalStoreSet(), plain.TerminalStoreSet()) {
		t.Error("coarsening changed the result-configurations")
	}
}

func TestBusyWaitTerminalsUnique(t *testing.T) {
	for _, opts := range []Options{
		{Reduction: Full},
		{Reduction: Stubborn},
		{Reduction: Stubborn, Coarsen: true},
	} {
		res := Explore(workloads.BusyWait(), opts)
		outs := res.OutcomeSet("out")
		if len(outs) != 1 || outs[0][0] != 42 {
			t.Errorf("%v: out values %v, want exactly [42]", opts, outs)
		}
	}
}

func TestProducerConsumer(t *testing.T) {
	res := Explore(workloads.ProducerConsumer(2), Options{Reduction: Stubborn, Coarsen: true})
	outs := res.OutcomeSet("consumed", "produced")
	if len(outs) != 1 {
		t.Fatalf("outcomes %v, want a single deterministic result", outs)
	}
	// consumed = (0+100) + (1+100) = 201, produced = 2.
	if outs[0][0] != 201 || outs[0][1] != 2 {
		t.Errorf("consumed,produced = %v, want [201 2]", outs[0])
	}
}

// Differential property: on random programs every reduction combination
// preserves the result-configuration set exactly. This is the paper's
// central soundness claim ("producing exactly the same set of
// result-configurations").
func TestDifferentialReductions(t *testing.T) {
	if testing.Short() {
		t.Skip("differential corpus in -short mode")
	}
	for seed := int64(0); seed < 75; seed++ {
		prog, _, err := progen.Generate(seed, progen.CorpusProfile())
		if err != nil {
			t.Fatal(err)
		}
		full := Explore(prog, Options{Reduction: Full, MaxConfigs: 1 << 18})
		if full.Truncated {
			continue
		}
		want := full.TerminalStoreSet()
		for _, opts := range []Options{
			{Reduction: Stubborn},
			{Reduction: Full, Coarsen: true},
			{Reduction: Stubborn, Coarsen: true},
		} {
			opts.MaxConfigs = 1 << 18
			res := Explore(prog, opts)
			if res.Truncated {
				t.Errorf("seed %d %v: truncated though full was not", seed, opts)
				continue
			}
			if got := res.TerminalStoreSet(); !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d %+v: result-configurations differ\n got: %v\nwant: %v\nprogram:\n%s",
					seed, opts, got, want, lang.Format(prog))
			}
			if res.States > full.States {
				t.Errorf("seed %d %+v: reduction increased the state count (%d > %d)",
					seed, opts, res.States, full.States)
			}
		}
	}
}

func TestStubbornNeverWorseOnFamilies(t *testing.T) {
	progs := map[string]*lang.Program{
		"fig2":    workloads.Fig2(),
		"fig5":    workloads.Fig5Malloc(),
		"workers": workloads.IndependentWorkers(3, 2),
		"clan":    workloads.ClanWorkers(3),
	}
	for name, prog := range progs {
		full := Explore(prog, Options{Reduction: Full})
		stub := Explore(prog, Options{Reduction: Stubborn})
		if stub.States > full.States {
			t.Errorf("%s: stubborn states %d > full %d", name, stub.States, full.States)
		}
	}
}

func TestSequentialProgramLinear(t *testing.T) {
	// A sequential program has exactly one enabled process everywhere;
	// both reductions degenerate to a single path.
	prog := lang.MustParse(`
var a;
func main() {
  var i = 0;
  while i < 5 { a = a + i; i = i + 1; }
}
`)
	full := Explore(prog, Options{Reduction: Full})
	stub := Explore(prog, Options{Reduction: Stubborn})
	if full.States != stub.States {
		t.Errorf("sequential: full %d != stubborn %d", full.States, stub.States)
	}
	if len(full.Terminals) != 1 {
		t.Errorf("%d terminals, want 1", len(full.Terminals))
	}
}

func TestErrorStatesReported(t *testing.T) {
	prog := lang.MustParse(`
var g;
func main() {
  cobegin { g = 1; } || { assert g == 0; } coend
}
`)
	res := Explore(prog, Options{Reduction: Full})
	if len(res.Errors) == 0 {
		t.Fatal("assertion can fail in some interleaving; no error state found")
	}
	// And some interleavings succeed.
	ok := false
	for _, c := range res.Terminals {
		if c.Err == "" {
			ok = true
		}
	}
	if !ok {
		t.Error("no successful terminal found")
	}
}

func TestMaxConfigsTruncates(t *testing.T) {
	res := Explore(workloads.Philosophers(4), Options{Reduction: Full, MaxConfigs: 100})
	if !res.Truncated {
		t.Error("expected truncation at 100 configs")
	}
	if res.States > 100 {
		t.Errorf("states %d exceeded the cap", res.States)
	}
}

type recordingSink struct {
	transitions int
	conflicts   map[string]bool
}

func (rs *recordingSink) Transition(*sem.StepResult) { rs.transitions++ }
func (rs *recordingSink) CoEnabled(c *sem.Config, a, b lang.NodeID, loc sem.Loc, ww bool) {
	if rs.conflicts == nil {
		rs.conflicts = map[string]bool{}
	}
	rs.conflicts[fmt.Sprintf("%d-%d-%v", a, b, ww)] = true
}

func TestSinkReceivesCallbacks(t *testing.T) {
	sink := &recordingSink{}
	res := Explore(workloads.Fig2(), Options{Reduction: Full, Sink: sink})
	if sink.transitions != res.Edges {
		t.Errorf("sink saw %d transitions, explorer counted %d edges", sink.transitions, res.Edges)
	}
	if len(sink.conflicts) == 0 {
		t.Error("Fig2 has write/read conflicts on A and B; none reported")
	}
}

func TestCoEnabledConflictDetectsRace(t *testing.T) {
	prog := lang.MustParse(`
var g;
func main() {
  cobegin { w1: g = 1; } || { w2: g = 2; } coend
}
`)
	sink := &recordingSink{}
	Explore(prog, Options{Reduction: Full, Sink: sink})
	foundWW := false
	for k := range sink.conflicts {
		if k[len(k)-4:] == "true" {
			foundWW = true
		}
	}
	if !foundWW {
		t.Error("write/write race on g not reported")
	}
}

func TestNoConflictNoCallback(t *testing.T) {
	prog := lang.MustParse(`
var a; var b;
func main() {
  cobegin { a = 1; } || { b = 2; } coend
}
`)
	sink := &recordingSink{}
	Explore(prog, Options{Reduction: Full, Sink: sink})
	if len(sink.conflicts) != 0 {
		t.Errorf("disjoint arms reported conflicts: %v", sink.conflicts)
	}
}

// A sink receives every transition's access and allocation events.
func TestCollectEvents(t *testing.T) {
	sink := &orderedSink{}
	Explore(workloads.Fig5Malloc(), Options{Reduction: Full, Sink: sink})
	if len(sink.accesses) == 0 {
		t.Error("no events collected")
	}
	if len(sink.allocs) == 0 {
		t.Error("no allocation events collected")
	}
}

func TestGranularityAblation(t *testing.T) {
	// GranStmt must never have more states than GranRef on a racy program.
	prog := lang.MustParse(`
var g;
func main() {
  cobegin { g = g + 1; } || { g = g + 1; } coend
}
`)
	ref := Explore(prog, Options{Reduction: Full, Granularity: sem.GranRef})
	stmt := Explore(prog, Options{Reduction: Full, Granularity: sem.GranStmt})
	if stmt.States >= ref.States {
		t.Errorf("GranStmt %d states, GranRef %d: expected coarser model to be smaller", stmt.States, ref.States)
	}
	if len(stmt.OutcomeSet("g")) >= len(ref.OutcomeSet("g")) {
		t.Errorf("GranStmt outcomes %v should be fewer than GranRef %v",
			stmt.OutcomeSet("g"), ref.OutcomeSet("g"))
	}
}

func TestPetersonMutualExclusion(t *testing.T) {
	// Peterson's protocol is correct under sequential consistency: no
	// interleaving reaches the failing assertion.
	for _, opts := range []Options{
		{Reduction: Full},
		{Reduction: Stubborn, Coarsen: true},
	} {
		res := Explore(workloads.Peterson(), opts)
		if res.Truncated {
			t.Fatalf("%+v: truncated", opts)
		}
		if len(res.Errors) != 0 {
			t.Errorf("%+v: mutual exclusion violated: %s", opts, res.Errors[0].Err)
		}
		outs := res.OutcomeSet("done0", "done1")
		if len(outs) != 1 || outs[0][0] != 1 || outs[0][1] != 1 {
			t.Errorf("%+v: both threads must finish, outcomes %v", opts, outs)
		}
	}
}

func TestPetersonBrokenFindsViolation(t *testing.T) {
	res := Explore(workloads.PetersonBroken(), Options{Reduction: Full})
	if res.Truncated {
		t.Fatal("truncated")
	}
	if len(res.Errors) == 0 {
		t.Fatal("the flag-only protocol must admit a mutual-exclusion violation")
	}
	// The witness trace must replay to the violation.
	resG := Explore(workloads.PetersonBroken(), Options{Reduction: Full, KeepGraph: true})
	errKey := resG.Errors[0].Encode()
	if _, ok := resG.Graph.TraceTo(errKey); !ok {
		t.Error("no witness trace to the violation")
	}
}

func TestNoCanonPreservesResults(t *testing.T) {
	// Raw-key exploration visits more states but must find the same
	// result-configurations.
	prog := workloads.Fig5Malloc()
	canon := Explore(prog, Options{Reduction: Full})
	raw := Explore(prog, Options{Reduction: Full, NoCanonKeys: true})
	if raw.States < canon.States {
		t.Errorf("raw %d below canonical %d", raw.States, canon.States)
	}
	if !reflect.DeepEqual(canon.TerminalStoreSet(), raw.TerminalStoreSet()) {
		t.Error("result-configuration sets differ between key schemes")
	}
}
