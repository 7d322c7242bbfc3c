package workloads

import (
	"testing"

	"psa/internal/explore"
	"psa/internal/lang"
	"psa/internal/sem"
)

// Every workload must parse, resolve, and run to completion under the
// deterministic scheduler without runtime errors. ProducerConsumer is
// excluded here: its consumer starves under the unfair lowest-first
// scheduler (the producer spins on the full buffer forever); exploration,
// which enumerates fair interleavings too, covers it below.
func TestWorkloadsRun(t *testing.T) {
	progs := map[string]*lang.Program{
		"Fig2":          Fig2(),
		"Fig2Reordered": Fig2Reordered(),
		"Fig5Malloc":    Fig5Malloc(),
		"Fig8Calls":     Fig8Calls(),
		"MemPlacement":  MemPlacement(),
		"BusyWait":      BusyWait(),
		"SideEffects":   SideEffects(),
		"Philosophers3": Philosophers(3),
		"Workers2x3":    IndependentWorkers(2, 3),
		"ClanWorkers3":  ClanWorkers(3),
	}
	for name, p := range progs {
		t.Run(name, func(t *testing.T) {
			res, err := sem.Run(p, 200000)
			if err != nil {
				t.Fatalf("%s did not terminate: %v", name, err)
			}
			if res.Final.Err != "" {
				t.Fatalf("%s errored: %s", name, res.Final.Err)
			}
		})
	}
}

func TestFig8Labels(t *testing.T) {
	p := Fig8Calls()
	for _, l := range []string{"s1", "s2", "s3", "s4"} {
		if p.StmtByLabel(l) == nil {
			t.Errorf("label %s missing", l)
		}
	}
}

func TestPhilosophersShape(t *testing.T) {
	p := Philosophers(4)
	if got := len(p.Globals); got != 8 {
		t.Errorf("%d globals, want 8 (4 forks + 4 meal counters)", got)
	}
	res, err := sem.Run(p, 100000)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		v, _ := res.Final.GlobalByName(forkName(i))
		if v.N != 2 {
			t.Errorf("fork%d = %s, want 2 (each fork bumped by two neighbors)", i, v)
		}
	}
}

func forkName(i int) string {
	return "fork" + string(rune('0'+i))
}

func TestPhilosophersPanicsBelow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Philosophers(1) should panic")
		}
	}()
	Philosophers(1)
}

func TestProducerConsumerResult(t *testing.T) {
	res := explore.Explore(ProducerConsumer(3), explore.Options{
		Reduction: explore.Stubborn, Coarsen: true,
	})
	outs := res.OutcomeSet("consumed")
	if len(outs) != 1 || outs[0][0] != 100+101+102 {
		t.Errorf("consumed outcomes = %v, want exactly [303]", outs)
	}
}

func TestClanWorkersArms(t *testing.T) {
	p := ClanWorkers(5)
	cb, ok := p.Func("main").Body.Stmts[0].(*lang.CobeginStmt)
	if !ok || len(cb.Arms) != 5 {
		t.Fatalf("want 5 arms")
	}
	res, _ := sem.Run(p, 10000)
	v, _ := res.Final.GlobalByName("counter")
	if v.N != 5 {
		t.Errorf("counter = %s, want 5 under the sequential scheduler", v)
	}
}
