package explore

import (
	"testing"

	"psa/internal/lang"
	"psa/internal/metrics"
	"psa/internal/progen"
	"psa/internal/sem"
	"psa/internal/workloads"
)

// A quiet transition into a state an earlier transition already claimed
// is never built: stepping it into a warm scratch, fingerprinting it and
// losing the claim allocates nothing. Forks are exempt (a cobegin names
// its child processes and pushes their procedure strings on the heap),
// and so is coarsening, whose run-extension checks dry-run access sets.
func TestClaimedFireAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	progs := map[string]*lang.Program{
		"philosophers3": workloads.Philosophers(3),
		"workers(3,3)":  workloads.IndependentWorkers(3, 3),
		"peterson":      workloads.Peterson(),
	}
	for name, prog := range progs {
		for _, opts := range []Options{{Reduction: Full}, {Reduction: Stubborn}} {
			vis := newVisited(false)
			sc := new(sem.Scratch)
			queue := []*sem.Config{sem.NewConfig(prog)}
			pinned := 0
			for head := 0; head < len(queue) && head < 200; head++ {
				c := queue[head]
				for _, pi := range c.Enabled() {
					res, _ := fire(c, pi, opts, true, sc)
					fp := res.Config.Fingerprint()
					if vis.claim("", fp, claimID(head, pi)) {
						queue = append(queue, sc.Commit())
					}
					if _, fork := c.NextStmt(pi).(*lang.CobeginStmt); fork {
						continue
					}
					late := claimID(len(queue)+1, 0)
					allocs := testing.AllocsPerRun(20, func() {
						res, _ := fire(c, pi, opts, true, sc)
						if vis.claim("", res.Config.Fingerprint(), late) {
							t.Fatal("a later claim won")
						}
					})
					if allocs != 0 {
						t.Fatalf("%s %v: claimed fire of %s allocates %.1f objects", name, opts.Reduction, c.Procs[pi].Path, allocs)
					}
					pinned++
				}
			}
			if pinned < 50 {
				t.Fatalf("%s: only %d transitions pinned", name, pinned)
			}
		}
	}
}

// states_built counts the successors copied out of the scratch. Run
// inline, claims arrive in sequential order, so exactly the first
// discoveries are built: states_unique − 1 (the seed is never built).
// With workers an earlier task's claim can arrive after a later task
// built the same state, so it may exceed that, but never states
// generated.
func TestStatesBuiltCountsFirstDiscoveries(t *testing.T) {
	type tc struct {
		prog *lang.Program
		opts Options
	}
	cases := map[string]tc{
		"philo4-full":        {workloads.Philosophers(4), Options{Reduction: Full}},
		"philo4-reduced":     {workloads.Philosophers(4), Options{Reduction: Stubborn, Coarsen: true}},
		"fig5-malloc-exact":  {workloads.Fig5Malloc(), Options{Reduction: Full, ExactKeys: true}},
		"workers-coarsened":  {workloads.IndependentWorkers(3, 3), Options{Reduction: Full, Coarsen: true}},
		"crossedwait-graphs": {workloads.CrossedWait(), Options{Reduction: Full, KeepGraph: true}},
	}
	for seed := int64(1); seed <= 5; seed++ {
		prog, _, err := progen.Generate(seed, progen.CorpusProfile())
		if err != nil {
			t.Fatal(err)
		}
		cases["progen"+string(rune('0'+seed))] = tc{prog, Options{Reduction: Full}}
	}
	for name, c := range cases {
		for _, workers := range []int{0, 1, 2, 4} {
			m := metrics.New()
			o := c.opts
			o.Pool, o.Metrics = testPool(t, workers), m
			res := Explore(c.prog, o)
			built, unique := m.Get(metrics.StatesBuilt), m.Get(metrics.StatesUnique)
			if workers <= 1 && built != unique-1 {
				t.Errorf("%s workers=%d: states_built = %d, want states_unique-1 = %d", name, workers, built, unique-1)
			}
			if built < unique-1 || built > m.Get(metrics.StatesGenerated) {
				t.Errorf("%s workers=%d: states_built = %d outside [%d, %d]",
					name, workers, built, unique-1, m.Get(metrics.StatesGenerated))
			}
			if int64(res.States) != unique {
				t.Errorf("%s workers=%d: states_unique %d, Result.States %d", name, workers, unique, res.States)
			}
		}
	}
}

// The sink sees a Config exactly on the transitions that discover a new
// state, at any worker count: transitions into an already-discovered
// state carry none, whether the explorer skipped building them or built
// one that an earlier claim then beat.
func TestSinkConfigOnlyForNewStates(t *testing.T) {
	for _, workers := range []int{0, 2, 4} {
		sink := &configSink{}
		m := metrics.New()
		res := Explore(workloads.Philosophers(4), Options{Reduction: Full, Pool: testPool(t, workers), Sink: sink, Metrics: m})
		if sink.withConfig != res.States-1 {
			t.Errorf("workers=%d: %d transitions carried a Config, want %d new states", workers, sink.withConfig, res.States-1)
		}
		if int64(sink.without) != m.Get(metrics.DedupHits) {
			t.Errorf("workers=%d: %d transitions without a Config, want %d dedup hits", workers, sink.without, m.Get(metrics.DedupHits))
		}
	}
}

type configSink struct{ withConfig, without int }

func (s *configSink) Transition(res *sem.StepResult) {
	if res.Config != nil {
		s.withConfig++
	} else {
		s.without++
	}
}

func (s *configSink) CoEnabled(*sem.Config, lang.NodeID, lang.NodeID, sem.Loc, bool) {}
