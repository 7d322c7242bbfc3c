package explore_test

import (
	"fmt"
	"reflect"
	"testing"

	"psa/internal/explore"
	"psa/internal/lang"
	"psa/internal/paperexp"
	"psa/internal/progen"
	"psa/internal/sem"
)

// scratchStatesPerCase bounds each corpus case's walk; the big paper
// workloads are sampled by their first states in BFS order.
const scratchStatesPerCase = 1500

// Every successor the explorer commits out of its scratch must be the
// successor Step builds — same canonical key, same fingerprint — for
// every transition of the explore corpora: the paper workloads under
// their recorded settings and the progen corpus (heap programs
// included) under full and stubborn+coarsen expansion, quiet and with
// events. The scratch result must also fingerprint like Step's before
// the commit (the claim is made on it), carry Step's event stream, and
// every committed successor must keep its key after the scratch has
// been reused and overwritten by later transitions.
func TestScratchCommitMatchesStep(t *testing.T) {
	type corpusCase struct {
		name string
		prog *lang.Program
		opts explore.Options
	}
	var cases []corpusCase
	for _, e := range paperexp.Expectations() {
		cases = append(cases, corpusCase{e.Workload + "/" + e.Strategy, e.Program(), e.Options()})
	}
	full := explore.Options{Reduction: explore.Full}
	reduced := explore.Options{Reduction: explore.Stubborn, Coarsen: true}
	for seed := int64(1); seed <= 40; seed++ {
		prog, _, err := progen.Generate(seed, progen.CorpusProfile())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cases = append(cases,
			corpusCase{fmt.Sprintf("progen%d/full", seed), prog, full},
			corpusCase{fmt.Sprintf("progen%d/stubborn+coarsen", seed), prog, reduced})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkScratchWalk(t, tc.prog, tc.opts)
		})
	}
}

func checkScratchWalk(t *testing.T, prog *lang.Program, opts explore.Options) {
	t.Helper()
	var sm *sem.Summaries
	if opts.Reduction == explore.Stubborn {
		sm = sem.NewSummaries(prog)
	}
	absorbLate := opts.Reduction == explore.Full
	sc := new(sem.Scratch)
	type entry struct {
		cfg *sem.Config
		key sem.Key
	}
	c0 := sem.NewConfig(prog)
	queue := []entry{{c0, c0.Encode()}}
	seen := map[sem.Key]bool{queue[0].key: true}
	for head := 0; head < len(queue) && head < scratchStatesPerCase; head++ {
		cur := queue[head]
		if got := cur.cfg.Encode(); got != cur.key {
			t.Fatalf("state %d: committed configuration changed after scratch reuse:\n got %q\nwant %q", head, got, cur.key)
		}
		enabled := cur.cfg.Enabled()
		set := enabled
		if sm != nil && len(enabled) > 0 {
			set = explore.StubbornSet(cur.cfg, enabled, sm)
		}
		var committed []entry
		for _, pi := range set {
			for _, quiet := range []bool{true, false} {
				o := opts
				if !quiet {
					o.Sink = nopSink{} // a sink turns the event stream on
				}
				res, absorbed := explore.Fire(cur.cfg, pi, o, absorbLate, sc)
				want := heapChain(cur.cfg, pi, absorbed, quiet)
				wantKey, wantFP := want.Config.Encode(), want.Config.Fingerprint()
				if got := res.Config.Fingerprint(); got != wantFP {
					t.Fatalf("state %d proc %d quiet=%v: scratch fingerprint %v, Step's %v", head, pi, quiet, got, wantFP)
				}
				if !reflect.DeepEqual(res.Events, want.Events) || !reflect.DeepEqual(res.Allocs, want.Allocs) {
					t.Fatalf("state %d proc %d quiet=%v: scratch events differ from Step's", head, pi, quiet)
				}
				nc := sc.Commit()
				if got := nc.Encode(); got != wantKey {
					t.Fatalf("state %d proc %d quiet=%v: committed key differs from Step's:\n got %q\nwant %q", head, pi, quiet, got, wantKey)
				}
				if got := nc.Fingerprint(); got != wantFP {
					t.Fatalf("state %d proc %d quiet=%v: committed fingerprint %v, Step's %v", head, pi, quiet, got, wantFP)
				}
				committed = append(committed, entry{nc, wantKey})
				if !seen[wantKey] {
					seen[wantKey] = true
					queue = append(queue, entry{nc, wantKey})
				}
			}
		}
		for _, e := range committed {
			if got := e.cfg.Encode(); got != e.key {
				t.Fatalf("state %d: a committed successor changed when the scratch was reused", head)
			}
		}
	}
}

// nopSink discards the instrumentation stream.
type nopSink struct{}

func (nopSink) Transition(*sem.StepResult)                                     {}
func (nopSink) CoEnabled(*sem.Config, lang.NodeID, lang.NodeID, sem.Loc, bool) {}

// heapChain replays a fired transition with Step: the first step of
// process pi, then absorbed more steps of the same process (the
// coarsened run fire took).
func heapChain(c *sem.Config, pi, absorbed int, quiet bool) sem.StepResult {
	step := func(c *sem.Config, i int) *sem.StepResult {
		if quiet {
			return c.StepQuiet(i)
		}
		return c.Step(i)
	}
	out := *step(c, pi)
	for k := 0; k < absorbed; k++ {
		r := step(out.Config, out.Config.ProcIndex(out.Proc))
		out.Config = r.Config
		out.Events = append(out.Events, r.Events...)
		out.Allocs = append(out.Allocs, r.Allocs...)
	}
	return out
}
