package abssem

import (
	"testing"

	"psa/internal/absdom"
	"psa/internal/lang"
	"psa/internal/metrics"
	"psa/internal/workloads"
)

// fill must keep the zero-value defaults AND let callers reach the
// boundary value 0 through the negative sentinel — the old code rewrote
// KBirth=0, RecLimit=0, and WidenAfter=0 to the defaults unconditionally,
// making k=0 birthdate folding and widen-on-first-rejoin unrequestable.
func TestOptionsFillBoundaries(t *testing.T) {
	def := Options{}
	def.fill()
	if def.KBirth != 2 || def.RecLimit != 3 || def.WidenAfter != 4 {
		t.Errorf("zero-value defaults = k%d/rec%d/widen%d, want 2/3/4",
			def.KBirth, def.RecLimit, def.WidenAfter)
	}
	if def.MaxStates != 1<<18 {
		t.Errorf("MaxStates default = %d, want %d", def.MaxStates, 1<<18)
	}
	if def.Domain == nil {
		t.Error("Domain not defaulted")
	}

	zero := Options{KBirth: -1, RecLimit: -1, WidenAfter: -1}
	zero.fill()
	if zero.KBirth != 0 || zero.RecLimit != 0 || zero.WidenAfter != 0 {
		t.Errorf("negative sentinels = k%d/rec%d/widen%d, want 0/0/0 round-trip",
			zero.KBirth, zero.RecLimit, zero.WidenAfter)
	}

	keep := Options{KBirth: 1, RecLimit: 5, WidenAfter: 7, MaxStates: 42}
	keep.fill()
	if keep.KBirth != 1 || keep.RecLimit != 5 || keep.WidenAfter != 7 || keep.MaxStates != 42 {
		t.Errorf("explicit values rewritten: %+v", keep)
	}
}

// KBirth=-1 (k=0) must actually change folding behavior: with no
// birthdate context every allocation site folds to one summary, giving
// no more states than the k=2 default.
func TestKBirthZeroBehavior(t *testing.T) {
	prog := workloads.Fig5Malloc()
	def := Analyze(prog, Options{Domain: absdom.ConstDomain{}})
	k0 := Analyze(prog, Options{Domain: absdom.ConstDomain{}, KBirth: -1})
	if k0.States > def.States {
		t.Errorf("k=0 folding produced MORE states (%d) than k=2 (%d)", k0.States, def.States)
	}
	if k0.Truncated || def.Truncated {
		t.Fatal("unexpected truncation")
	}
}

// WidenAfter=-1 (widen on first rejoin) must still converge and must
// widen at least as eagerly as the default on a counting loop.
func TestWidenAfterZeroBehavior(t *testing.T) {
	prog := lang.MustParse(`
var n;
func main() {
  var i = 0;
  while i < 100 { i = i + 1; }
  n = i;
}
`)
	mDef, mZero := metrics.New(), metrics.New()
	def := Analyze(prog, Options{Domain: absdom.IntervalDomain{}, Metrics: mDef})
	eager := Analyze(prog, Options{Domain: absdom.IntervalDomain{}, WidenAfter: -1, Metrics: mZero})
	if def.Truncated || eager.Truncated {
		t.Fatal("unexpected truncation")
	}
	if eager.Visits > def.Visits {
		t.Errorf("widen-on-first-rejoin took more visits (%d) than the default (%d)",
			eager.Visits, def.Visits)
	}
	if joins := mZero.Get(metrics.AbsJoins); joins > 0 && mZero.Get(metrics.AbsWidenings) != joins {
		t.Errorf("WidenAfter=0: %d joins but %d widenings — every rejoin must widen",
			joins, mZero.Get(metrics.AbsWidenings))
	}
}

// A truncated run must still report invariants, terminal joins, and
// footprints for the prefix it explored — the old early return left
// res.at empty and TerminalCount 0, so clients verified against nothing.
func TestTruncatedRunPopulated(t *testing.T) {
	prog := workloads.Philosophers(4)
	res := Analyze(prog, Options{Domain: absdom.ConstDomain{}, CollectFootprints: true, MaxStates: 50})
	if !res.Truncated {
		t.Fatal("MaxStates=50 did not truncate philosophers(4)")
	}
	if res.States == 0 || res.States > 50 {
		t.Errorf("truncated States = %d, want in (0, 50]", res.States)
	}
	if len(res.at) == 0 {
		t.Error("truncated run reports no program-point invariants")
	}
	if res.foot == nil || len(res.foot.m) == 0 {
		t.Error("truncated run reports no footprints")
	}
	// A full run on a small program, truncated exactly at its state
	// count, must report everything the untruncated run reports.
	small := workloads.Fig2()
	full := Analyze(small, Options{Domain: absdom.ConstDomain{}})
	cut := Analyze(small, Options{Domain: absdom.ConstDomain{}, MaxStates: full.States})
	if cut.Truncated {
		if cut.TerminalCount == 0 && full.TerminalCount > 0 {
			t.Error("truncated run lost its terminals")
		}
	}
}

// collect must clone stores on first assignment: res.at and res.Terminal
// used to alias the state table's live configuration stores, so a client
// holding a returned invariant — or a later engine pass joining into a
// still-queued configuration — shared structure with analysis state.
func TestCollectClonesStores(t *testing.T) {
	prog := lang.MustParse(`
var g;
func main() { g = 1; }
`)
	cfg := initialConfig(prog, absdom.ConstDomain{})
	states := map[ctrlSig]*aState{cfg.signature(): stateOf(cfg)}
	res := &Result{prog: prog}
	res.collect(states, nil)
	if len(res.at) == 0 {
		t.Fatal("collect produced no invariants")
	}
	for id, st := range res.at {
		if st == cfg.Store {
			t.Errorf("invariant at node %d aliases the live configuration store", id)
		}
		if !st.Eq(cfg.Store) {
			t.Errorf("cloned invariant at node %d differs from source", id)
		}
	}

	// Terminal-only configuration: the terminal join must be cloned too.
	term := initialConfig(prog, absdom.ConstDomain{})
	term.Procs[0].Status = Done
	tstates := map[ctrlSig]*aState{term.signature(): stateOf(term)}
	tres := &Result{prog: prog}
	tres.collect(tstates, nil)
	if tres.TerminalCount != 1 {
		t.Fatalf("terminal not collected: %+v", tres)
	}
	if tres.Terminal == term.Store {
		t.Error("Result.Terminal aliases the live configuration store")
	}
	if !tres.Terminal.Eq(term.Store) {
		t.Error("cloned terminal differs from source")
	}
}

// stateOf returns a stored state holding cfg.
func stateOf(cfg *AConfig) *aState {
	st := &aState{}
	st.cfg.Store(cfg)
	return st
}
