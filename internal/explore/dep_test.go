package explore

import (
	"reflect"
	"runtime"
	"testing"

	"psa/internal/metrics"
	"psa/internal/progen"
	"psa/internal/sched"
	"psa/internal/sem"
	"psa/internal/workloads"
)

// parallelWorkers are the worker counts every differential case of the
// parallel (dependency-driven) explorer runs at.
var parallelWorkers = []int{2, 4, 8, runtime.GOMAXPROCS(0)}

// testPool is sched.ForWorkers(w), closed when the test ends.
func testPool(t *testing.T, w int) *sched.Pool {
	pool := sched.ForWorkers(w)
	t.Cleanup(pool.Close)
	return pool
}

// matchesSequential runs matchesOnPools on a fresh pool of each worker
// count.
func matchesSequential(t *testing.T, mk func() *sem.Config, opts Options, workers ...int) {
	t.Helper()
	pools := make([]*sched.Pool, len(workers))
	for i, w := range workers {
		pools[i] = testPool(t, w)
	}
	matchesOnPools(t, mk, opts, pools...)
}

// matchesOnPools runs the configuration mk builds under opts once
// inline (nil pool) and once on each pool, and asserts the parallel run
// is indistinguishable from the inline one: every Result count
// (MaxFrontier included), the terminal and error sets, the truncation
// flag, graph shape, the ordered sink stream with its access and
// allocation events, every deterministic metrics counter, and the
// per-level stats. opts must not set Pool, Sink, or Metrics.
func matchesOnPools(t *testing.T, mk func() *sem.Config, opts Options, pools ...*sched.Pool) {
	t.Helper()
	run := func(pool *sched.Pool) (*Result, *orderedSink, *metrics.Snapshot) {
		o := opts
		o.Pool = pool
		o.Sink = &orderedSink{}
		m := metrics.New()
		o.Metrics = m
		res := ExploreFrom(mk(), o)
		return res, o.Sink.(*orderedSink), m.Snapshot()
	}
	seq, seqSink, seqSnap := run(nil)
	for _, pool := range pools {
		w := pool.Workers()
		par, parSink, parSnap := run(pool)
		if par.States != seq.States || par.Edges != seq.Edges || par.MaxFrontier != seq.MaxFrontier {
			t.Errorf("workers=%d: states/edges/maxFrontier %d/%d/%d != inline %d/%d/%d", w,
				par.States, par.Edges, par.MaxFrontier, seq.States, seq.Edges, seq.MaxFrontier)
		}
		if par.Truncated != seq.Truncated || par.Cancelled {
			t.Errorf("workers=%d: truncated=%v cancelled=%v, inline truncated=%v",
				w, par.Truncated, par.Cancelled, seq.Truncated)
		}
		if !reflect.DeepEqual(par.TerminalStoreSet(), seq.TerminalStoreSet()) {
			t.Errorf("workers=%d: terminal sets differ", w)
		}
		if len(par.Errors) != len(seq.Errors) {
			t.Errorf("workers=%d: %d error states, inline %d", w, len(par.Errors), len(seq.Errors))
		}
		if !reflect.DeepEqual(parSink.accesses, seqSink.accesses) || !reflect.DeepEqual(parSink.allocs, seqSink.allocs) {
			t.Errorf("workers=%d: access/allocation events differ", w)
		}
		if !reflect.DeepEqual(parSink.events, seqSink.events) {
			t.Errorf("workers=%d: sink stream diverges from inline (%d vs %d events)",
				w, len(parSink.events), len(seqSink.events))
		}
		if got, want := parSnap.DeterministicCounters(), seqSnap.DeterministicCounters(); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: deterministic counters differ:\n  parallel   %v\n  inline     %v", w, got, want)
		}
		if got, want := stripNanos(parSnap.Levels), stripNanos(seqSnap.Levels); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: level stats differ\n got %+v\nwant %+v", w, got, want)
		}
		if opts.KeepGraph {
			if len(par.Graph.Nodes) != par.States {
				t.Errorf("workers=%d: graph inconsistent", w)
			}
			if got, want := len(par.Graph.Divergent()), len(seq.Graph.Divergent()); got != want {
				t.Errorf("workers=%d: divergent: parallel %d != inline %d", w, got, want)
			}
		}
	}
}

// The parallel explorer must reproduce the inline explorer's numbers
// exactly — states, edges, MaxFrontier, terminal sets, graph shape, sink
// stream, deterministic counters, and per-level stats — at every worker
// count.
func TestDepMatchesSequential(t *testing.T) {
	progs := map[string]Options{
		"fig2-full":          {Reduction: Full},
		"fig5-stubborn":      {Reduction: Stubborn},
		"philo3-full":        {Reduction: Full},
		"philo4-reduced":     {Reduction: Stubborn, Coarsen: true},
		"workers-coarsened":  {Reduction: Full, Coarsen: true},
		"peterson-reduced":   {Reduction: Stubborn, Coarsen: true},
		"crossedwait-graphs": {Reduction: Full, KeepGraph: true},
	}
	sources := map[string]func() *sem.Config{
		"fig2-full":          func() *sem.Config { return sem.NewConfig(workloads.Fig2()) },
		"fig5-stubborn":      func() *sem.Config { return sem.NewConfig(workloads.Fig5Malloc()) },
		"philo3-full":        func() *sem.Config { return sem.NewConfig(workloads.Philosophers(3)) },
		"philo4-reduced":     func() *sem.Config { return sem.NewConfig(workloads.Philosophers(4)) },
		"workers-coarsened":  func() *sem.Config { return sem.NewConfig(workloads.IndependentWorkers(3, 3)) },
		"peterson-reduced":   func() *sem.Config { return sem.NewConfig(workloads.Peterson()) },
		"crossedwait-graphs": func() *sem.Config { return sem.NewConfig(workloads.CrossedWait()) },
	}
	for name, opts := range progs {
		t.Run(name, func(t *testing.T) {
			matchesSequential(t, sources[name], opts, parallelWorkers...)
		})
	}
}

// The same cases back to back on one shared sched.Pool (the CLI and
// service pattern): a pool that just served one exploration must leave
// the next indistinguishable from the inline explorer.
func TestParallelMatchesSequential(t *testing.T) {
	progs := map[string]Options{
		"fig2-full":          {Reduction: Full},
		"fig5-stubborn":      {Reduction: Stubborn},
		"philo3-full":        {Reduction: Full},
		"philo4-reduced":     {Reduction: Stubborn, Coarsen: true},
		"workers-coarsened":  {Reduction: Full, Coarsen: true},
		"peterson-reduced":   {Reduction: Stubborn, Coarsen: true},
		"crossedwait-graphs": {Reduction: Full, KeepGraph: true},
	}
	sources := map[string]func() *sem.Config{
		"fig2-full":          func() *sem.Config { return sem.NewConfig(workloads.Fig2()) },
		"fig5-stubborn":      func() *sem.Config { return sem.NewConfig(workloads.Fig5Malloc()) },
		"philo3-full":        func() *sem.Config { return sem.NewConfig(workloads.Philosophers(3)) },
		"philo4-reduced":     func() *sem.Config { return sem.NewConfig(workloads.Philosophers(4)) },
		"workers-coarsened":  func() *sem.Config { return sem.NewConfig(workloads.IndependentWorkers(3, 3)) },
		"peterson-reduced":   func() *sem.Config { return sem.NewConfig(workloads.Peterson()) },
		"crossedwait-graphs": func() *sem.Config { return sem.NewConfig(workloads.CrossedWait()) },
	}
	pool := testPool(t, 4)
	for name, opts := range progs {
		t.Run(name, func(t *testing.T) {
			matchesOnPools(t, sources[name], opts, pool, pool)
		})
	}
}

// Random programs (loops, nested cobegin, heap traffic) through the same
// differential check.
func TestDepCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus in -short mode")
	}
	for seed := int64(0); seed < 25; seed++ {
		prog, _, err := progen.Generate(seed, progen.CorpusProfile())
		if err != nil {
			t.Fatal(err)
		}
		mk := func() *sem.Config { return sem.NewConfig(prog) }
		matchesSequential(t, mk, Options{Reduction: Full, MaxConfigs: 1 << 17}, parallelWorkers...)
		if t.Failed() {
			t.Fatalf("seed %d diverged", seed)
		}
	}
}

// The random corpus again under stubborn-set reduction with coarsening,
// whose per-task stubborn-set and coarsening decisions the workers make.
func TestParallelCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus in -short mode")
	}
	for seed := int64(0); seed < 25; seed++ {
		prog, _, err := progen.Generate(seed, progen.CorpusProfile())
		if err != nil {
			t.Fatal(err)
		}
		mk := func() *sem.Config { return sem.NewConfig(prog) }
		matchesSequential(t, mk, Options{Reduction: Stubborn, Coarsen: true, MaxConfigs: 1 << 17}, 3, 4)
		if t.Failed() {
			t.Fatalf("seed %d diverged", seed)
		}
	}
}

// The merge chain must replay the inline sink stream verbatim, not
// merely the same multiset (orderedSink is the event-for-event recorder
// from metrics_test.go, which also records every access and allocation
// event).
func TestDepSinkStreamIsSequential(t *testing.T) {
	mk := func() *sem.Config { return sem.NewConfig(workloads.Philosophers(3)) }
	matchesSequential(t, mk, Options{Reduction: Full}, parallelWorkers...)
}

// The parallel sink sees every transition and every co-enabled conflict.
func TestParallelSinkSeesEverything(t *testing.T) {
	for _, workers := range parallelWorkers {
		sink := &recordingSink{}
		res := Explore(workloads.Fig2(), Options{Reduction: Full, Pool: testPool(t, workers), Sink: sink})
		if sink.transitions != res.Edges {
			t.Errorf("workers=%d: sink saw %d transitions, explorer counted %d", workers, sink.transitions, res.Edges)
		}
		if len(sink.conflicts) == 0 {
			t.Errorf("workers=%d: co-enabled conflicts not reported in parallel mode", workers)
		}
	}
}

// Truncated runs must equal the inline truncated run exactly: the
// cut falls on the same discovery, and the explored prefix — counts,
// terminals, errors — matches. Claims made by expansions past the cut
// must never leak into the Result.
func TestDepTruncationMatchesSequential(t *testing.T) {
	mk := func() *sem.Config { return sem.NewConfig(workloads.Philosophers(4)) }
	for _, max := range []int{50, 200, 1000} {
		if !ExploreFrom(mk(), Options{Reduction: Full, MaxConfigs: max}).Truncated {
			t.Fatalf("MaxConfigs=%d did not truncate", max)
		}
		matchesSequential(t, mk, Options{Reduction: Full, MaxConfigs: max}, parallelWorkers...)
	}
}

// The MaxConfigs cut under stubborn-set reduction with a kept graph: the
// truncated graph, terminals, and errors match the inline cut.
func TestParallelTruncation(t *testing.T) {
	mk := func() *sem.Config { return sem.NewConfig(workloads.Philosophers(4)) }
	for _, max := range []int{50, 200} {
		opts := Options{Reduction: Stubborn, KeepGraph: true, MaxConfigs: max}
		if !ExploreFrom(mk(), opts).Truncated {
			t.Fatalf("MaxConfigs=%d did not truncate", max)
		}
		matchesSequential(t, mk, opts, parallelWorkers...)
	}
}

// A violation trace discovered by the parallel explorer must replay
// step-for-step on the concrete semantics.
func TestDepTraceReplay(t *testing.T) {
	prog := workloads.PetersonBroken()
	for _, workers := range parallelWorkers {
		res := Explore(prog, Options{Reduction: Full, KeepGraph: true, Pool: testPool(t, workers)})
		if len(res.Errors) == 0 {
			t.Fatalf("workers=%d: violation expected", workers)
		}
		key := res.Errors[0].Encode()
		trace, ok := res.Graph.TraceTo(key)
		if !ok {
			t.Fatalf("workers=%d: no trace", workers)
		}
		c := sem.NewConfig(prog)
		for _, step := range trace {
			idx := -1
			for j, p := range c.Procs {
				if p.Path == step.Proc {
					idx = j
				}
			}
			if idx < 0 {
				t.Fatalf("workers=%d: replay lost a process", workers)
			}
			c = c.Step(idx).Config
		}
		if c.Encode() != key {
			t.Errorf("workers=%d: parallel-discovered trace does not replay to its state", workers)
		}
	}
}

// Under stubborn-set reduction every violation the parallel explorer
// finds carries a trace that replays step-for-step to it.
func TestParallelTraceReplay(t *testing.T) {
	prog := workloads.PetersonBroken()
	for _, workers := range parallelWorkers {
		res := Explore(prog, Options{Reduction: Stubborn, KeepGraph: true, Pool: testPool(t, workers)})
		if len(res.Errors) == 0 {
			t.Fatalf("workers=%d: violation expected", workers)
		}
		for _, e := range res.Errors {
			key := e.Encode()
			trace, ok := res.Graph.TraceTo(key)
			if !ok {
				t.Fatalf("workers=%d: no trace", workers)
			}
			c := sem.NewConfig(prog)
			for _, step := range trace {
				idx := -1
				for j, p := range c.Procs {
					if p.Path == step.Proc {
						idx = j
					}
				}
				if idx < 0 {
					t.Fatalf("workers=%d: replay lost a process", workers)
				}
				c = c.Step(idx).Config
			}
			if c.Encode() != key {
				t.Errorf("workers=%d: parallel-discovered trace does not replay to its state", workers)
			}
		}
	}
}

// sched.ForWorkers(-1), the CLIs' "all cores" request, is a pool of
// GOMAXPROCS workers, held to the same differential check.
func TestNegativeWorkersMeansAllCores(t *testing.T) {
	pool := testPool(t, -1)
	if got, want := pool.Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("ForWorkers(-1) has %d workers, want GOMAXPROCS=%d", got, want)
	}
	mk := func() *sem.Config { return sem.NewConfig(workloads.Fig2()) }
	matchesOnPools(t, mk, Options{Reduction: Full}, pool)
}
