package pipeline

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"psa/internal/absdom"
	"psa/internal/abssem"
	"psa/internal/explore"
	"psa/internal/lang"
	"psa/internal/metrics"
	"psa/internal/sched"
	"psa/internal/sem"
	"psa/internal/workloads"
)

// recSink records the full instrumentation stream it observes, rendered
// to strings so two streams can be compared bit-for-bit.
type recSink struct {
	log []string
}

func (r *recSink) Transition(res *sem.StepResult) {
	stmt := "-"
	if res.Stmt != nil {
		stmt = lang.DescribeStmt(res.Stmt)
	}
	// A transition into an already-discovered state carries no Config.
	to := "dup"
	if res.Config != nil {
		to = fmt.Sprintf("err=%q", res.Config.Err)
	}
	r.log = append(r.log, fmt.Sprintf("T proc=%s stmt=%s %s", res.Proc, stmt, to))
	for _, ev := range res.Events {
		r.log = append(r.log, fmt.Sprintf("  E proc=%s stmt=%d kind=%v loc=%v site=%d pstr=%s birth=%s",
			ev.ProcPath, ev.Stmt, ev.Kind, ev.Loc, ev.Site, ev.PStr.String(), ev.Birth.String()))
	}
	for _, al := range res.Allocs {
		r.log = append(r.log, fmt.Sprintf("  A id=%d n=%d site=%d proc=%s birth=%s",
			al.ID, al.Count, al.Site, al.Proc, al.Birth.String()))
	}
}

func (r *recSink) CoEnabled(c *sem.Config, a, b lang.NodeID, loc sem.Loc, ww bool) {
	r.log = append(r.log, fmt.Sprintf("C a=%d b=%d loc=%v ww=%v", a, b, loc, ww))
}

// TestMultiSinkBitIdentical pins the pipeline's core contract: one
// traversal feeding N sinks through a MultiSink delivers every sink the
// exact stream it would have observed in its own dedicated traversal —
// at 0, 1, and 4 workers (the CI race job repeats this under -race).
func TestMultiSinkBitIdentical(t *testing.T) {
	progs := map[string]*lang.Program{
		"fig5-malloc":   workloads.Fig5Malloc(),
		"philosophers3": workloads.Philosophers(3),
	}
	const nSinks = 3
	for name, prog := range progs {
		for _, workers := range []int{0, 1, 4} {
			t.Run(fmt.Sprintf("%s/workers%d", name, workers), func(t *testing.T) {
				pool := sched.ForWorkers(workers)
				defer pool.Close()
				ro := RunOptions{Pool: pool}

				// Reference: each sink in its own traversal.
				want := make([]*recSink, nSinks)
				var wantRes *explore.Result
				for i := range want {
					want[i] = &recSink{}
					eo := ro.ExploreOptions()
					eo.Sink = want[i]
					wantRes = explore.Explore(prog, eo)
				}

				// Fused: all sinks fed from one traversal.
				got := make([]*recSink, nSinks)
				sinks := make([]NamedSink, nSinks)
				for i := range got {
					got[i] = &recSink{}
					sinks[i] = NamedSink{Name: fmt.Sprintf("rec%d", i), Sink: got[i]}
				}
				gotRes := Explore(prog, ro, sinks...)

				if gotRes.String() != wantRes.String() {
					t.Fatalf("fused result %s, dedicated result %s", gotRes, wantRes)
				}
				for i := range got {
					if !reflect.DeepEqual(got[i].log, want[i].log) {
						t.Fatalf("sink %d stream diverged between fused and dedicated runs:\nfused %d entries, dedicated %d entries\nfirst diff: %s",
							i, len(got[i].log), len(want[i].log), firstDiff(got[i].log, want[i].log))
					}
				}
			})
		}
	}
}

func firstDiff(a, b []string) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("entry %d: %q vs %q", i, a[i], b[i])
		}
	}
	return fmt.Sprintf("lengths %d vs %d", len(a), len(b))
}

// A fused run must report its fan-out through the perf-only
// pipeline_fused_sinks counter and one phase per named sink.
func TestMultiSinkMetrics(t *testing.T) {
	m := metrics.New()
	ro := RunOptions{Metrics: m}
	a, b := &recSink{}, &recSink{}
	Explore(workloads.Fig5Malloc(), ro,
		NamedSink{Name: "alpha", Sink: a}, NamedSink{Name: "beta", Sink: b})
	if got := m.Get(metrics.PipelineFusedSinks); got != 2 {
		t.Errorf("pipeline_fused_sinks = %d, want 2", got)
	}
	snap := m.Snapshot()
	phases := map[string]bool{}
	for _, p := range snap.Phases {
		phases[p.Name] = true
	}
	for _, want := range []string{"sink:alpha", "sink:beta", "explore"} {
		if !phases[want] {
			t.Errorf("missing phase %q in %v", want, snap.Phases)
		}
	}
	if metrics.PipelineFusedSinks.PerfOnly() != true {
		t.Error("pipeline_fused_sinks must be perf-only")
	}
	if len(a.log) == 0 || !reflect.DeepEqual(a.log, b.log) {
		t.Error("both sinks must observe the same non-empty stream")
	}
}

// MultiSink tolerates nil sinks and an empty registration list; the
// Explore helper must not install an empty compositor (which would
// force event materialization for no consumer).
func TestMultiSinkDegenerate(t *testing.T) {
	ms := NewMultiSink(nil).Add("nil", nil)
	if ms.Len() != 0 {
		t.Fatalf("nil sink registered: Len=%d", ms.Len())
	}
	res := Explore(workloads.Fig2(), RunOptions{}, NamedSink{Name: "none", Sink: nil})
	plain := explore.Explore(workloads.Fig2(), explore.Options{})
	if res.String() != plain.String() {
		t.Errorf("sink-less pipeline run %s, plain run %s", res, plain)
	}
}

// RunOptions must map onto both engines' option structs field-for-field.
func TestRunOptionsMapping(t *testing.T) {
	m := metrics.New()
	pool := sched.NewPool(2)
	defer pool.Close()
	ro := RunOptions{
		Reduction:  explore.Stubborn,
		Coarsen:    true,
		Pool:       pool,
		MaxConfigs: 1234,
		ExactKeys:  true,
		Metrics:    m,
	}
	eo := ro.ExploreOptions()
	if eo.Reduction != explore.Stubborn || !eo.Coarsen ||
		eo.Pool != pool || eo.MaxConfigs != 1234 || !eo.ExactKeys || eo.Metrics != m {
		t.Errorf("ExploreOptions mapping lost a field: %+v", eo)
	}
	ao := ro.AbstractOptions()
	if ao.Pool != pool || ao.MaxStates != 1234 || ao.Metrics != m {
		t.Errorf("AbstractOptions mapping lost a field: %+v", ao)
	}
	st := ro.Strategy(explore.Full, false)
	if st.Reduction != explore.Full || st.Coarsen || st.Pool != pool || st.MaxConfigs != 1234 {
		t.Errorf("Strategy must replace only reduction settings: %+v", st)
	}
}

// Cache keys must cover result-relevant fields and ignore execution-only
// ones (Pool/Metrics — bit-identical by the engines' contract).
func TestCacheKeys(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	base := RunOptions{Reduction: explore.Stubborn, Coarsen: true, MaxConfigs: 99}
	same := base
	same.Pool = pool
	same.Metrics = metrics.New()
	if base.Key() != same.Key() {
		t.Errorf("Key must ignore Pool/Metrics: %q vs %q", base.Key(), same.Key())
	}
	diff := base
	diff.ExactKeys = true
	if base.Key() == diff.Key() {
		t.Errorf("Key must distinguish ExactKeys: %q", base.Key())
	}

	// Abstract keys normalize: zero limits equal their defaults, negative
	// limits equal the explicit boundary 0, and the execution-only fields
	// drop out.
	if AbstractKey(abssem.Options{}) != AbstractKey(abssem.Options{KBirth: 2, RecLimit: 3, WidenAfter: 4, Pool: pool}) {
		t.Error("AbstractKey must normalize defaults and ignore Pool")
	}
	if AbstractKey(abssem.Options{KBirth: -1}) == AbstractKey(abssem.Options{}) {
		t.Error("AbstractKey must distinguish KBirth 0 (negative request) from the default")
	}
	if AbstractKey(abssem.Options{Domain: absdom.SignDomain{}}) == AbstractKey(abssem.Options{Domain: absdom.IntervalDomain{}}) {
		t.Error("AbstractKey must distinguish domains")
	}
	if !strings.Contains(AbstractKey(abssem.Options{Domain: absdom.SignDomain{}}), "sign") {
		t.Error("AbstractKey should embed the domain name for diagnosability")
	}
}
