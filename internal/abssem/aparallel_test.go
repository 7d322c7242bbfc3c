package abssem

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"psa/internal/absdom"
	"psa/internal/lang"
	"psa/internal/metrics"
	"psa/internal/progen"
	"psa/internal/workloads"
)

// sameResult asserts that two abstract interpretation results are
// bit-identical: every exported Result field, the per-point invariant
// map, and the collected footprints.
func sameResult(t *testing.T, seq, par *Result) {
	t.Helper()
	if par.States != seq.States {
		t.Errorf("states: parallel %d != inline %d", par.States, seq.States)
	}
	if par.Visits != seq.Visits {
		t.Errorf("visits: parallel %d != inline %d", par.Visits, seq.Visits)
	}
	if par.TerminalCount != seq.TerminalCount {
		t.Errorf("terminals: parallel %d != inline %d", par.TerminalCount, seq.TerminalCount)
	}
	if par.MayError != seq.MayError {
		t.Errorf("mayError: parallel %v != inline %v", par.MayError, seq.MayError)
	}
	if par.Truncated != seq.Truncated {
		t.Errorf("truncated: parallel %v != inline %v", par.Truncated, seq.Truncated)
	}
	switch {
	case (par.Terminal == nil) != (seq.Terminal == nil):
		t.Errorf("terminal store: parallel %v != inline %v", par.Terminal, seq.Terminal)
	case par.Terminal != nil:
		if !par.Terminal.Eq(seq.Terminal) || par.Terminal.String() != seq.Terminal.String() {
			t.Errorf("terminal store: parallel %s != inline %s", par.Terminal, seq.Terminal)
		}
	}
	if len(par.at) != len(seq.at) {
		t.Errorf("invariant map: parallel %d points != inline %d", len(par.at), len(seq.at))
	}
	for id, want := range seq.at {
		got := par.at[id]
		if got == nil {
			t.Errorf("invariant at node %d missing in parallel result", id)
			continue
		}
		if !got.Eq(want) || got.String() != want.String() {
			t.Errorf("invariant at node %d: parallel %s != inline %s", id, got, want)
		}
	}
	switch {
	case (par.foot == nil) != (seq.foot == nil):
		t.Errorf("footprints: parallel %v != inline %v", par.foot != nil, seq.foot != nil)
	case par.foot != nil:
		if !reflect.DeepEqual(par.foot.m, seq.foot.m) {
			t.Error("footprint maps differ")
		}
	}
}

// analyzeAt runs prog at the given worker count.
func analyzeAt(prog *lang.Program, opts Options, workers int) *Result {
	opts.Workers = workers
	return Analyze(prog, opts)
}

// The parallel abstract fixpoint must reproduce the inline (0-worker)
// run's Result bit-for-bit — including the deterministic metrics
// counters — at 1, 2, 4, 8, and GOMAXPROCS workers, across domains and
// workload shapes.
// (CI runs this under -race; the workers share the step context and
// load the states' configurations while the merge joins, so the race
// detector exercises the "workers only read, merge only writes"
// discipline.)
func TestParallelMatchesSequentialAbstract(t *testing.T) {
	domains := map[string]absdom.NumDomain{
		"const":    absdom.ConstDomain{},
		"interval": absdom.IntervalDomain{},
		"sign":     absdom.SignDomain{},
	}
	progs := map[string]*lang.Program{
		"fig2":     workloads.Fig2(),
		"fig8":     workloads.Fig8Calls(),
		"philo3":   workloads.Philosophers(3),
		"workers":  workloads.IndependentWorkers(3, 3),
		"prodcons": workloads.ProducerConsumer(2),
		"busywait": workloads.BusyWait(),
	}
	for dname, dom := range domains {
		for pname, prog := range progs {
			t.Run(dname+"/"+pname, func(t *testing.T) {
				mseq := metrics.New()
				seq := Analyze(prog, Options{Domain: dom, CollectFootprints: true, Metrics: mseq})
				for _, workers := range []int{1, 2, 4, 8, -1} {
					mpar := metrics.New()
					par := analyzeAt(prog, Options{Domain: dom, CollectFootprints: true, Metrics: mpar}, workers)
					sameResult(t, seq, par)
					got := mpar.Snapshot().DeterministicCounters()
					want := mseq.Snapshot().DeterministicCounters()
					if !reflect.DeepEqual(got, want) {
						t.Errorf("workers=%d: deterministic counters differ:\n  parallel   %v\n  inline     %v",
							workers, got, want)
					}
				}
			})
		}
	}
}

// The whole testdata corpus must analyze identically at any worker count.
func TestParallelCorpusAbstract(t *testing.T) {
	dir := filepath.Join("..", "..", "testdata")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("testdata: %v", err)
	}
	ran := 0
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".cb") {
			continue
		}
		ran++
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			prog, err := lang.Parse(string(src))
			if err != nil {
				t.Fatal(err)
			}
			seq := Analyze(prog, Options{Domain: absdom.IntervalDomain{}, CollectFootprints: true})
			for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
				par := Analyze(prog, Options{Domain: absdom.IntervalDomain{}, CollectFootprints: true, Workers: workers})
				sameResult(t, seq, par)
			}
		})
	}
	if ran < 5 {
		t.Fatalf("corpus too small: %d programs", ran)
	}
}

// Random programs (loops, nested cobegin, heap traffic) stress join/widen
// interleavings the hand-written workloads miss — in particular joins
// that grow a state after a worker expanded its queued task (the
// stale-recompute path).
func TestParallelRandomAbstract(t *testing.T) {
	if testing.Short() {
		t.Skip("random corpus in -short mode")
	}
	for seed := int64(0); seed < 20; seed++ {
		prog, _, err := progen.Generate(seed, progen.CorpusProfile())
		if err != nil {
			t.Fatal(err)
		}
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			opts := Options{Domain: absdom.IntervalDomain{}, CollectFootprints: true}
			seq := Analyze(prog, opts)
			for _, workers := range []int{2, 4} {
				sameResult(t, seq, analyzeAt(prog, opts, workers))
			}
		})
	}
}

// Truncated runs must also match: the MaxStates cut happens at the same
// discovery in both engines, and both report the explored prefix.
func TestParallelTruncationMatches(t *testing.T) {
	prog := workloads.Philosophers(3)
	for _, max := range []int{5, 17, 60} {
		opts := Options{Domain: absdom.ConstDomain{}, CollectFootprints: true, MaxStates: max}
		seq := Analyze(prog, opts)
		if !seq.Truncated {
			t.Fatalf("MaxStates=%d did not truncate", max)
		}
		for _, workers := range []int{1, 4} {
			sameResult(t, seq, analyzeAt(prog, opts, workers))
		}
	}
}
