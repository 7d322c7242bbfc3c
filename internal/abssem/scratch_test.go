package abssem

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"psa/internal/absdom"
	"psa/internal/lang"
	"psa/internal/progen"
	"psa/internal/workloads"
)

// deepCopy returns a copy of c that shares no process, frame or globals
// with it, with empty slices made non-nil (a step may leave either).
// Two configurations are equal if their deep copies are DeepEqual, and
// two deep copies of c taken apart in time differ only if c was written
// in between.
func deepCopy(c *AConfig) *AConfig {
	cp := c.clone()
	for i := range cp.Procs {
		cloneProcIn(cp, i)
	}
	cp.Store = c.Store.Own()
	return cp
}

// reachable returns up to n configurations reached from prog's initial
// one by heap steps, breadth first.
func reachable(sc *stepCtx, prog *lang.Program, n int) []*AConfig {
	out := []*AConfig{initialConfig(prog, sc.dom)}
	for i := 0; i < len(out) && len(out) < n; i++ {
		for _, pi := range out[i].enabled() {
			for _, succ := range sc.step(out[i], pi) {
				if succ.Procs != nil && len(out) < n {
					out = append(out, succ)
				}
			}
		}
	}
	return out
}

// TestScratchCommitMatchesStep pins scratch stepping to step: every
// successor stepped into a scratch and committed equals the successor
// step builds, the configuration stepped is never written, and a
// committed successor stays equal after the scratch is reset and reused
// by every later step.
func TestScratchCommitMatchesStep(t *testing.T) {
	progs := map[string]*lang.Program{
		"philosophers3": workloads.Philosophers(3),
		"fig8":          workloads.Fig8Calls(),
		"sideeffects":   workloads.SideEffects(),
	}
	for seed := int64(1); seed <= 40; seed++ {
		prog, _, err := progen.Generate(seed, progen.CorpusProfile())
		if err != nil {
			t.Fatal(err)
		}
		progs[fmt.Sprintf("corpus/seed%d", seed)] = prog
	}
	for name, prog := range progs {
		for _, dom := range []absdom.NumDomain{absdom.ConstDomain{}, absdom.IntervalDomain{}} {
			opts := Options{Domain: dom, ClanFold: true}
			opts.fill()
			sc := newStepCtx(prog, opts)
			scr := new(aScratch)
			var committed, built []*AConfig
			for _, cfg := range reachable(sc, prog, 60) {
				before := deepCopy(cfg)
				for _, pi := range cfg.enabled() {
					want := sc.step(cfg, pi)
					scr.reset()
					got := sc.stepIn(scr, cfg, pi)
					if len(got) != len(want) {
						t.Fatalf("%s/%s: %d scratch successors, step built %d", name, dom.Name(), len(got), len(want))
					}
					for k, w := range want {
						if w.Procs == nil {
							if got[k].Procs != nil || got[k].MayError != w.MayError {
								t.Errorf("%s/%s: error witness differs", name, dom.Name())
							}
							continue
						}
						c := commit(cfg, got[k])
						if !reflect.DeepEqual(deepCopy(c), deepCopy(w)) {
							t.Errorf("%s/%s: committed successor %s, step built %s", name, dom.Name(), c, w)
						}
						committed, built = append(committed, c), append(built, w)
					}
				}
				if !reflect.DeepEqual(deepCopy(cfg), before) {
					t.Errorf("%s/%s: stepping wrote the configuration stepped", name, dom.Name())
				}
			}
			for k := range committed {
				if !reflect.DeepEqual(deepCopy(committed[k]), deepCopy(built[k])) {
					t.Errorf("%s/%s: a committed successor changed when the scratch was reused", name, dom.Name())
					break
				}
			}
		}
	}
}

// TestExpandBelowAllocatesNothing pins the cost of a successor below its
// state: at the fixpoint every successor is below, and expanding a state
// whose transitions allocate nothing themselves (no constants to box, no
// cobegin to spawn) allocates nothing at all once its scratch is warm —
// no step copy, store copy, fold key or verdict reaches the heap.
func TestExpandBelowAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	prog := lang.MustParse(`
var g; var h;
func main() {
	var x = 0;
	cobegin { g = x; h = g; skip; } || { skip; g = x; var y = h; } coend
}
`)
	opts := Options{Domain: absdom.IntervalDomain{}}
	opts.fill()
	sc := newStepCtx(prog, opts)
	_, states := analyzeParallel(context.Background(), sc, opts)
	checked := 0
	for _, st := range states.m {
		cfg := st.cfg.Load()
		if cfg.Procs[0].Status != WaitJoin {
			continue // main itself steps: literals and the cobegin allocate
		}
		e := expandState(sc, states, cfg)
		n := len(e.succs)
		for _, s := range e.succs {
			if !s.below {
				t.Errorf("%s: a successor at the fixpoint is not below its state", cfg)
			}
		}
		e.release()
		if n == 0 {
			continue
		}
		allocs := testing.AllocsPerRun(50, func() {
			e := expandState(sc, states, cfg)
			e.release()
		})
		if allocs != 0 {
			t.Errorf("%s: expanding %d below successors allocates %v times, want 0", cfg, n, allocs)
		}
		checked++
	}
	if checked < 3 {
		t.Fatalf("only %d states checked", checked)
	}
}
