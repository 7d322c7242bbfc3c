package explore

import (
	"reflect"
	"runtime"
	"testing"

	"psa/internal/lang"
	"psa/internal/metrics"
	"psa/internal/workloads"
)

// Differential equivalence of the two visited-set representations: over
// the full workload corpus, fingerprint mode (the default) must produce
// exactly the result exact-key mode does — same state and edge counts,
// same terminal stores, same deterministic engine counters — at every
// worker count. A fingerprint collision anywhere in these spaces (tens
// of thousands of states) would silently drop states and fail this test.
func TestFingerprintModeMatchesExact(t *testing.T) {
	full := Options{Reduction: Full, MaxConfigs: 1 << 22}
	reduced := Options{Reduction: Stubborn, Coarsen: true, MaxConfigs: 1 << 22}
	cases := []struct {
		name string
		prog func() *lang.Program
		opts Options
	}{
		{"fig2/full", workloads.Fig2, full},
		{"fig5-malloc/full", workloads.Fig5Malloc, full},
		{"fig5-malloc/reduced", workloads.Fig5Malloc, reduced},
		{"philosophers3/full", func() *lang.Program { return workloads.Philosophers(3) }, full},
		{"philosophers4/full", func() *lang.Program { return workloads.Philosophers(4) }, full},
		{"philosophers5/reduced", func() *lang.Program { return workloads.Philosophers(5) }, reduced},
		{"philosophers6/reduced", func() *lang.Program { return workloads.Philosophers(6) }, reduced},
		{"peterson/reduced", workloads.Peterson, reduced},
		{"workers(3,3)/full", func() *lang.Program { return workloads.IndependentWorkers(3, 3) }, full},
	}
	workerCounts := []int{1, 4}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 4 {
		workerCounts = append(workerCounts, p)
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog := tc.prog()

			// Reference: exact keys, sequential.
			refM := metrics.New()
			refOpts := tc.opts
			refOpts.ExactKeys = true
			refOpts.Metrics = refM
			ref := Explore(prog, refOpts)
			refStores := ref.TerminalStoreSet()
			refCounters := refM.Snapshot().DeterministicCounters()

			for _, exact := range []bool{true, false} {
				for _, workers := range workerCounts {
					if exact && workers == 1 {
						continue // that is the reference run
					}
					m := metrics.New()
					opts := tc.opts
					opts.ExactKeys = exact
					opts.Pool = testPool(t, workers)
					opts.Metrics = m
					res := Explore(prog, opts)

					label := "fingerprint"
					if exact {
						label = "exact"
					}
					if res.States != ref.States || res.Edges != ref.Edges || len(res.Terminals) != len(ref.Terminals) {
						t.Errorf("%s workers=%d: %d states / %d edges / %d terminals, reference %d / %d / %d",
							label, workers, res.States, res.Edges, len(res.Terminals),
							ref.States, ref.Edges, len(ref.Terminals))
					}
					if res.Truncated != ref.Truncated {
						t.Errorf("%s workers=%d: truncated=%v, reference %v", label, workers, res.Truncated, ref.Truncated)
					}
					if got := res.TerminalStoreSet(); !reflect.DeepEqual(got, refStores) {
						t.Errorf("%s workers=%d: terminal store set differs (%d vs %d entries)",
							label, workers, len(got), len(refStores))
					}
					if got := m.Snapshot().DeterministicCounters(); !reflect.DeepEqual(got, refCounters) {
						t.Errorf("%s workers=%d: deterministic counters diverge:\n got %v\nwant %v",
							label, workers, got, refCounters)
					}
				}
			}
		})
	}
}

// MaxConfigs truncation must cut at the same state in both key modes —
// the visited-set representation may not change which configuration
// trips the cap.
func TestFingerprintModeTruncationAgrees(t *testing.T) {
	prog := workloads.Philosophers(4)
	var refStates, refEdges int
	for i, exact := range []bool{true, false} {
		res := Explore(prog, Options{Reduction: Full, MaxConfigs: 500, ExactKeys: exact})
		if !res.Truncated {
			t.Fatalf("exact=%v: expected truncation", exact)
		}
		if i == 0 {
			refStates, refEdges = res.States, res.Edges
		} else if res.States != refStates || res.Edges != refEdges {
			t.Errorf("truncation point differs: exact %d/%d, fingerprint %d/%d",
				refStates, refEdges, res.States, res.Edges)
		}
	}
}
