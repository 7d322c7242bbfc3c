package abssem

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"psa/internal/absdom"
	"psa/internal/explore"
	"psa/internal/lang"
	"psa/internal/metrics"
	"psa/internal/progen"
	"psa/internal/sched"
	"psa/internal/workloads"
)

// One shared sched.Pool must serve consecutive Analyze calls — and mixed
// Explore/Analyze sequences, the CLI pattern — with results identical to
// the inline engines, then release every goroutine on Close.
func TestSharedPoolAcrossEngines(t *testing.T) {
	prog := workloads.Philosophers(3)
	before := runtime.NumGoroutine()
	pool := sched.NewPool(4)

	aseq := Analyze(prog, Options{Domain: absdom.IntervalDomain{}, CollectFootprints: true})
	for run := 0; run < 2; run++ {
		apar := Analyze(prog, Options{Domain: absdom.IntervalDomain{}, CollectFootprints: true,
			Workers: 4, Pool: pool})
		sameResult(t, aseq, apar)
	}

	eseq := explore.Explore(prog, explore.Options{Reduction: explore.Full})
	epar := explore.Explore(prog, explore.Options{Reduction: explore.Full, Workers: 4, Pool: pool})
	if epar.States != eseq.States || epar.Edges != eseq.Edges {
		t.Errorf("concrete explorer on the shared pool: %d/%d != inline %d/%d",
			epar.States, epar.Edges, eseq.States, eseq.Edges)
	}
	// And the abstract engine again, after the concrete one used the pool.
	apar := Analyze(prog, Options{Domain: absdom.IntervalDomain{}, CollectFootprints: true,
		Workers: 4, Pool: pool})
	sameResult(t, aseq, apar)

	pool.Close()
	waitForGoroutineBaseline(t, before)
}

// A MaxStates truncation cuts the serial merge while workers may still
// be expanding; the shared pool must stay usable and the run must not
// leak workers.
func TestPoolCleanShutdownOnTruncation(t *testing.T) {
	prog := workloads.Philosophers(3)
	before := runtime.NumGoroutine()
	pool := sched.NewPool(4)
	opts := Options{Domain: absdom.ConstDomain{}, CollectFootprints: true, MaxStates: 17}
	seq := Analyze(prog, opts)
	if !seq.Truncated {
		t.Fatal("MaxStates=17 did not truncate")
	}
	popts := opts
	popts.Workers = 4
	popts.Pool = pool
	par := Analyze(prog, popts)
	sameResult(t, seq, par)
	// The pool survives the cut and serves a complete fixpoint next.
	full := Analyze(prog, Options{Domain: absdom.ConstDomain{}, Workers: 4, Pool: pool})
	if full.Truncated {
		t.Error("post-truncation reuse: full run reported truncation")
	}
	pool.Close()
	waitForGoroutineBaseline(t, before)
}

// Without Options.Pool each parallel Analyze runs a private pool and
// must tear it down on exit — on the fixpoint path and the truncation
// path alike.
func TestPrivatePoolNoGoroutineLeak(t *testing.T) {
	prog := workloads.Philosophers(3)
	before := runtime.NumGoroutine()
	Analyze(prog, Options{Domain: absdom.IntervalDomain{}, Workers: 4})
	Analyze(prog, Options{Domain: absdom.ConstDomain{}, MaxStates: 17, Workers: 4})
	waitForGoroutineBaseline(t, before)
}

// Both engines run on the dependency-driven pipeline (sched.DepRounds)
// and may share one pool. The tests below interleave the two on it.

// exploreMatches runs the concrete explorer on pool and asserts it
// matches the inline explorer under the same options.
func exploreMatches(t *testing.T, prog *lang.Program, opts explore.Options, pool *sched.Pool) {
	t.Helper()
	seq := explore.Explore(prog, opts)
	opts.Workers = pool.Workers()
	opts.Pool = pool
	par := explore.Explore(prog, opts)
	if par.States != seq.States || par.Edges != seq.Edges || par.Truncated != seq.Truncated {
		t.Errorf("explorer on the shared pool: %d/%d truncated=%v != inline %d/%d truncated=%v",
			par.States, par.Edges, par.Truncated, seq.States, seq.Edges, seq.Truncated)
	}
}

// Every domain x workload case on a pool that serves the explorer's
// pipeline before and between the abstract runs: the abstract Result
// and its deterministic counters stay bit-identical to the inline run.
func TestDepMatchesSequentialAbstract(t *testing.T) {
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
				for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0)} {
					pool := sched.NewPool(workers)
					for run := 0; run < 2; run++ {
						exploreMatches(t, prog, explore.Options{Reduction: explore.Full, MaxConfigs: 1 << 12}, pool)
						mpar := metrics.New()
						par := Analyze(prog, Options{Domain: dom, CollectFootprints: true,
							Metrics: mpar, Workers: workers, Pool: pool})
						sameResult(t, seq, par)
						got := mpar.Snapshot().DeterministicCounters()
						want := mseq.Snapshot().DeterministicCounters()
						if !reflect.DeepEqual(got, want) {
							t.Errorf("workers=%d run=%d: deterministic counters differ:\n  parallel   %v\n  inline     %v",
								workers, run, got, want)
						}
					}
					pool.Close()
				}
			})
		}
	}
}

// The random corpus on one pool the explorer's pipeline also serves,
// including explorer runs the MaxConfigs cap cuts short.
func TestDepRandomAbstract(t *testing.T) {
	if testing.Short() {
		t.Skip("random corpus in -short mode")
	}
	pool := sched.NewPool(4)
	defer pool.Close()
	for seed := int64(0); seed < 20; seed++ {
		prog, _, err := progen.Generate(seed, progen.CorpusProfile())
		if err != nil {
			t.Fatal(err)
		}
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			exploreMatches(t, prog, explore.Options{Reduction: explore.Full, MaxConfigs: 1 << 10}, pool)
			opts := Options{Domain: absdom.IntervalDomain{}, CollectFootprints: true}
			seq := Analyze(prog, opts)
			opts.Workers = 4
			opts.Pool = pool
			sameResult(t, seq, Analyze(prog, opts))
		})
	}
}

// Both engines cut short on one pool, alternately: each abstract
// MaxStates cut still lands on the inline engine's discovery.
func TestDepTruncationMatchesAbstract(t *testing.T) {
	prog := workloads.Philosophers(3)
	pool := sched.NewPool(4)
	defer pool.Close()
	for _, max := range []int{5, 17, 60} {
		exploreMatches(t, prog, explore.Options{Reduction: explore.Full, MaxConfigs: 2 * max}, pool)
		opts := Options{Domain: absdom.ConstDomain{}, CollectFootprints: true, MaxStates: max}
		seq := Analyze(prog, opts)
		if !seq.Truncated {
			t.Fatalf("MaxStates=%d did not truncate", max)
		}
		popts := opts
		popts.Workers = 4
		popts.Pool = pool
		sameResult(t, seq, Analyze(prog, popts))
	}
}

// A shared pool through consecutive abstract runs, an abstract
// truncation, the explorer's pipeline, and a complete fixpoint: results
// match the inline engines and Close releases every goroutine.
func TestDepSharedPoolAndTruncationShutdown(t *testing.T) {
	prog := workloads.Philosophers(3)
	before := runtime.NumGoroutine()
	pool := sched.NewPool(4)

	aseq := Analyze(prog, Options{Domain: absdom.IntervalDomain{}, CollectFootprints: true})
	for run := 0; run < 2; run++ {
		apar := Analyze(prog, Options{Domain: absdom.IntervalDomain{}, CollectFootprints: true,
			Workers: 4, Pool: pool})
		sameResult(t, aseq, apar)
	}

	topts := Options{Domain: absdom.ConstDomain{}, CollectFootprints: true, MaxStates: 17}
	tseq := Analyze(prog, topts)
	if !tseq.Truncated {
		t.Fatal("MaxStates=17 did not truncate")
	}
	tpopts := topts
	tpopts.Workers = 4
	tpopts.Pool = pool
	sameResult(t, tseq, Analyze(prog, tpopts))

	// The pool survives the cut for the explorer and the abstract engine.
	exploreMatches(t, prog, explore.Options{Reduction: explore.Full}, pool)
	full := Analyze(prog, Options{Domain: absdom.ConstDomain{}, Workers: 4, Pool: pool})
	if full.Truncated {
		t.Error("post-truncation reuse: full run reported truncation")
	}

	pool.Close()
	waitForGoroutineBaseline(t, before)
}

// Private pools of both engines, complete and truncated runs, tear
// down on exit.
func TestDepPrivatePoolNoGoroutineLeak(t *testing.T) {
	prog := workloads.Philosophers(3)
	before := runtime.NumGoroutine()
	explore.Explore(prog, explore.Options{Reduction: explore.Full, Workers: 4})
	explore.Explore(prog, explore.Options{Reduction: explore.Full, MaxConfigs: 50, Workers: 4})
	Analyze(prog, Options{Domain: absdom.IntervalDomain{}, Workers: 4})
	Analyze(prog, Options{Domain: absdom.ConstDomain{}, MaxStates: 17, Workers: 4})
	waitForGoroutineBaseline(t, before)
}

func waitForGoroutineBaseline(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= want {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutine leak: %d running, baseline %d", runtime.NumGoroutine(), want)
			return
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}
