package explore

import (
	"context"
	"runtime"
	"testing"

	"psa/internal/lang"
	"psa/internal/sem"
	"psa/internal/workloads"
)

// cancelSink cancels a context after n Transition callbacks — a
// deterministic way to cut a run mid-flight, since the explorer delivers
// sink events from serial code at any worker count.
type cancelSink struct {
	n      int
	seen   int
	cancel context.CancelFunc
}

func (c *cancelSink) Transition(*sem.StepResult) {
	c.seen++
	if c.seen == c.n {
		c.cancel()
	}
}

func (c *cancelSink) CoEnabled(*sem.Config, lang.NodeID, lang.NodeID, sem.Loc, bool) {}

// A pre-cancelled context stops every engine variant before any
// expansion is merged: the result is the empty-but-coherent prefix (the
// initial configuration only), flagged Cancelled, never Truncated.
func TestExploreContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"sequential", 0},
		{"workers-4", 4},
	} {
		before := runtime.NumGoroutine()
		res := ExploreContext(ctx, workloads.Philosophers(3), Options{
			Reduction: Full, Workers: tc.workers,
		})
		if !res.Cancelled {
			t.Errorf("%s: Cancelled not set on a pre-cancelled run", tc.name)
		}
		if res.Truncated {
			t.Errorf("%s: cancellation must not masquerade as truncation", tc.name)
		}
		if res.States != 1 || res.Edges != 0 {
			t.Errorf("%s: pre-cancelled run explored states=%d edges=%d, want 1/0",
				tc.name, res.States, res.Edges)
		}
		waitForGoroutineBaseline(t, before)
	}
}

// Cancelling mid-run (from a sink callback, so the cut lands at a
// deterministic point in the serial merge stream) must produce the same
// coherent partial artifacts as a MaxConfigs cut: the explored prefix is
// a strict, consistent subset of the full space, in-flight expansions
// drain (no goroutine leak), and nothing runs after return.
func TestExploreContextCancelMidRun(t *testing.T) {
	full := Explore(workloads.Philosophers(4), Options{Reduction: Full})
	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"sequential", 0},
		{"workers-4", 4},
	} {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		sink := &cancelSink{n: 25, cancel: cancel}
		res := ExploreContext(ctx, workloads.Philosophers(4), Options{
			Reduction: Full, Workers: tc.workers, Sink: sink,
		})
		cancel()
		if !res.Cancelled {
			t.Errorf("%s: Cancelled not set after mid-run cancel", tc.name)
		}
		if res.Truncated {
			t.Errorf("%s: cancellation must not masquerade as truncation", tc.name)
		}
		// Coherent prefix: the cut stops the merge stream, so the counts
		// must describe a strict prefix of the full exploration.
		if res.Edges < 25 {
			t.Errorf("%s: cancelled run reports %d edges, sink saw at least 25", tc.name, res.Edges)
		}
		if res.States >= full.States || res.Edges >= full.Edges {
			t.Errorf("%s: cancelled run (%d states, %d edges) not a strict prefix of full (%d, %d)",
				tc.name, res.States, res.Edges, full.States, full.Edges)
		}
		waitForGoroutineBaseline(t, before)
	}
}

// The MaxConfigs truncation path is unchanged by the context plumbing:
// a truncated run under a live context reports Truncated, not Cancelled.
func TestTruncationNotReportedAsCancellation(t *testing.T) {
	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"sequential", 0},
		{"workers-4", 4},
	} {
		res := ExploreContext(context.Background(), workloads.Philosophers(4), Options{
			Reduction: Full, MaxConfigs: 200, Workers: tc.workers,
		})
		if !res.Truncated {
			t.Errorf("%s: expected truncation at MaxConfigs=200", tc.name)
		}
		if res.Cancelled {
			t.Errorf("%s: truncation must not set Cancelled", tc.name)
		}
	}
}

// A nil or Background context adds no observable behavior: results stay
// bit-identical to the context-free API.
func TestExploreContextBackgroundIdentical(t *testing.T) {
	plain := Explore(workloads.Fig2(), Options{Reduction: Full})
	ctxed := ExploreContext(context.Background(), workloads.Fig2(), Options{Reduction: Full})
	nilled := ExploreContext(nil, workloads.Fig2(), Options{Reduction: Full}) //nolint:staticcheck // nil-guard under test
	for name, res := range map[string]*Result{"background": ctxed, "nil": nilled} {
		if res.States != plain.States || res.Edges != plain.Edges ||
			len(res.Terminals) != len(plain.Terminals) || res.Cancelled {
			t.Errorf("%s-context run diverged from plain Explore: %v vs %v", name, res, plain)
		}
	}
}
