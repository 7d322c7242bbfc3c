package abssem_test

import (
	"sync"
	"testing"

	"psa/internal/abssem"
	"psa/internal/sched"
)

// TestExpandVerdictMatchesJoin pins the expansion-time ⊑ verdict to the
// merge's join: on every successor of the golden corpora (the paper's
// abstract workloads and progen corpus seeds 1–40, const and interval)
// that expansion tests against a stored state, inline and on a 2-worker
// pool, absorbs says "below" exactly when joinInto of the successor into
// the same configuration, with or without widening, returns nil.
func TestExpandVerdictMatchesJoin(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	var mu sync.Mutex
	below, above := 0, 0
	for _, c := range goldenCases(t) {
		for _, p := range []*sched.Pool{nil, pool} {
			o := c.opts
			o.Pool = p
			abssem.AnalyzeWithVerdicts(c.prog, o, func(b, joinNil, widenNil bool) {
				mu.Lock()
				defer mu.Unlock()
				if b != joinNil || b != widenNil {
					t.Errorf("%s (pool %v): verdict below=%v, but joinInto nil=%v, widening nil=%v",
						c.name, p != nil, b, joinNil, widenNil)
				}
				if b {
					below++
				} else {
					above++
				}
			})
		}
	}
	if below == 0 || above == 0 {
		t.Errorf("the corpora tested one verdict only: %d below, %d not", below, above)
	}
	t.Logf("%d verdicts below, %d not", below, above)
}
