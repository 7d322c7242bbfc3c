package abssem

import (
	"testing"

	"psa/internal/absdom"
	"psa/internal/lang"
	"psa/internal/metrics"
)

// The fixpoint engine must report its visit, join, and widening activity
// through the registry, and the counters must agree with the Result.
func TestAnalyzeMetrics(t *testing.T) {
	m := metrics.New()
	// A counting loop over intervals climbs an infinite ascending chain,
	// so the fixpoint cannot converge without widening.
	prog := lang.MustParse(`
var n;
func main() {
  var i = 0;
  loop: while i < 100 { i = i + 1; }
  n = i;
}
`)
	res := Analyze(prog, Options{Domain: absdom.IntervalDomain{}, Metrics: m})

	if got := m.Get(metrics.AbsVisits); got != int64(res.Visits) {
		t.Errorf("abs_visits = %d, Result.Visits = %d", got, res.Visits)
	}
	if got := m.Get(metrics.AbsStates); got != int64(res.States) {
		t.Errorf("abs_states = %d, Result.States = %d", got, res.States)
	}
	if m.Get(metrics.AbsJoins) == 0 {
		t.Error("no join events recorded")
	}
	if m.Get(metrics.AbsWidenings) == 0 {
		t.Error("no widening events recorded on a looping program")
	}
	// The run records its whole span as "abstract" and, like every
	// worker count, each round's fan-out and merge.
	phases := map[string]bool{}
	for _, p := range m.Snapshot().Phases {
		phases[p.Name] = true
	}
	for _, name := range []string{"abstract", "abstract-expand", "abstract-merge"} {
		if !phases[name] {
			t.Errorf("phase %q missing: %v", name, phases)
		}
	}

	// A metrics-free run must produce identical results.
	plain := Analyze(prog, Options{Domain: absdom.IntervalDomain{}})
	if plain.States != res.States || plain.Visits != res.Visits {
		t.Errorf("metrics perturbed the fixpoint: %d/%d vs %d/%d",
			res.States, res.Visits, plain.States, plain.Visits)
	}
}
