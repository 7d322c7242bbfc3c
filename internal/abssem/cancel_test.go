package abssem

import (
	"context"
	"runtime"
	"testing"
	"time"

	"psa/internal/absdom"
	"psa/internal/metrics"
	"psa/internal/workloads"
)

func waitForGoroutineBaselineAbs(t *testing.T, want int) {
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

// A pre-cancelled context stops every engine variant before the first
// worklist pop — and the run must STILL collect: the cancelled result
// reports the states map as it stands (the initial state), mirroring
// the truncation path's collect() contract. A regression here would
// return States=0 with no invariants at all.
func TestAnalyzeContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"sequential", 0},
		{"workers-4", 4},
	} {
		pool := testPool(t, tc.workers)
		before := runtime.NumGoroutine()
		res := AnalyzeContext(ctx, workloads.Philosophers(3), Options{Pool: pool})
		if !res.Cancelled {
			t.Errorf("%s: Cancelled not set on a pre-cancelled run", tc.name)
		}
		if res.Truncated {
			t.Errorf("%s: cancellation must not masquerade as truncation", tc.name)
		}
		if res.States != 1 {
			t.Errorf("%s: collect did not run on the cancelled prefix: States=%d, want 1 (the initial state)",
				tc.name, res.States)
		}
		if res.Visits != 0 {
			t.Errorf("%s: pre-cancelled run visited %d entries, want 0", tc.name, res.Visits)
		}
		waitForGoroutineBaselineAbs(t, before)
	}
}

// Cancelling mid-fixpoint (triggered off the live abs_visits counter, so
// the cut lands while the worklist is demonstrably in flight) must take
// the truncation cut's shape: the run stops at a worklist boundary,
// in-flight expansions drain, and collect() still reports invariants for
// the visited prefix — the same coherence the PR-3 collect fix pinned
// for MaxStates cuts.
func TestAnalyzeContextCancelMidRun(t *testing.T) {
	full := Analyze(workloads.Philosophers(5), Options{Domain: absdom.IntervalDomain{}})
	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"sequential", 0},
		{"workers-4", 4},
	} {
		pool := testPool(t, tc.workers)
		before := runtime.NumGoroutine()
		reg := metrics.New()
		ctx, cancel := context.WithCancel(context.Background())
		resc := make(chan *Result, 1)
		go func() {
			resc <- AnalyzeContext(ctx, workloads.Philosophers(5), Options{
				Domain: absdom.IntervalDomain{}, Metrics: reg, Pool: pool,
			})
		}()
		// Cancel once the fixpoint has demonstrably visited some prefix.
		for reg.Snapshot().Counters["abs_visits"] < 50 {
			select {
			case res := <-resc:
				t.Fatalf("%s: run finished (%v) before the cancel trigger — workload too small", tc.name, res)
			default:
				time.Sleep(100 * time.Microsecond)
			}
		}
		cancel()
		res := <-resc
		if !res.Cancelled {
			// The run raced to completion between the counter read and the
			// cancel; everything below would be vacuous.
			if res.Visits != full.Visits {
				t.Errorf("%s: uncancelled run diverged from full: %v vs %v", tc.name, res, full)
			}
			continue
		}
		if res.Truncated {
			t.Errorf("%s: cancellation must not masquerade as truncation", tc.name)
		}
		if res.Visits < 50 || res.Visits >= full.Visits {
			t.Errorf("%s: cancelled run visits=%d, want a strict mid-run prefix of %d",
				tc.name, res.Visits, full.Visits)
		}
		if res.States < 1 || res.States > full.States {
			t.Errorf("%s: cancelled run States=%d outside (0, %d] — collect missing or incoherent",
				tc.name, res.States, full.States)
		}
		waitForGoroutineBaselineAbs(t, before)
	}
}

// The MaxStates truncation path is unchanged by the context plumbing.
func TestAbsTruncationNotReportedAsCancellation(t *testing.T) {
	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"sequential", 0},
		{"workers-4", 4},
	} {
		res := AnalyzeContext(context.Background(), workloads.Philosophers(4), Options{
			MaxStates: 100, Pool: testPool(t, tc.workers),
		})
		if !res.Truncated {
			t.Errorf("%s: expected truncation at MaxStates=100", tc.name)
		}
		if res.Cancelled {
			t.Errorf("%s: truncation must not set Cancelled", tc.name)
		}
		if res.States == 0 {
			t.Errorf("%s: truncated run lost its collect artifacts", tc.name)
		}
	}
}

// A Background or nil context is behaviorally invisible.
func TestAnalyzeContextBackgroundIdentical(t *testing.T) {
	plain := Analyze(workloads.Philosophers(3), Options{})
	ctxed := AnalyzeContext(context.Background(), workloads.Philosophers(3), Options{})
	nilled := AnalyzeContext(nil, workloads.Philosophers(3), Options{}) //nolint:staticcheck // nil-guard under test
	for name, res := range map[string]*Result{"background": ctxed, "nil": nilled} {
		if res.States != plain.States || res.Visits != plain.Visits || res.Cancelled {
			t.Errorf("%s-context run diverged from plain Analyze: %v vs %v", name, res, plain)
		}
	}
}
