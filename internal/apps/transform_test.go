package apps

import (
	"reflect"
	"strings"
	"testing"

	"psa/internal/abssem"
	"psa/internal/lang"
	"psa/internal/metrics"
	"psa/internal/pipeline"
	"psa/internal/sched"
	"psa/internal/workloads"
)

func TestApplyScheduleFig8(t *testing.T) {
	prog := workloads.Fig8Calls()
	cl := collector(t, prog)
	sched := Parallelize(cl, "s1", "s2", "s3", "s4")
	out, err := ApplySchedule(prog, sched)
	if err != nil {
		t.Fatal(err)
	}
	src := lang.Format(out)
	if !strings.Contains(src, "cobegin") {
		t.Fatalf("no cobegin in transformed program:\n%s", src)
	}
	// The dependence-respecting restructuring must preserve semantics.
	eq := VerifySchedule(prog, out)
	if !eq.Equal {
		t.Errorf("restructuring changed the outcome set:\noriginal: %v\ntransformed: %v",
			eq.OriginalOutcomes, eq.TransformedOutcomes)
	}
}

func TestApplyScheduleBadSplitDetected(t *testing.T) {
	// Deliberately break the grouping: put the dependent pair (s1,s4)
	// into different arms. Verification must catch the change.
	prog := workloads.Fig8Calls()
	bad := &Schedule{Groups: [][]string{{"s1", "s2"}, {"s3", "s4"}}}
	out, err := ApplySchedule(prog, bad)
	if err != nil {
		t.Fatal(err)
	}
	eq := VerifySchedule(prog, out)
	if eq.Equal {
		t.Error("splitting the dependent pair should change reachable outcomes (s4 may now read A=0)")
	}
}

func TestApplyScheduleContiguityEnforced(t *testing.T) {
	prog := lang.MustParse(`
var a; var b;
func main() {
  s1: a = 1;
  b = 99;
  s2: b = 2;
}
`)
	sched := &Schedule{Groups: [][]string{{"s1"}, {"s2"}}}
	if _, err := ApplySchedule(prog, sched); err == nil {
		t.Error("non-contiguous scheduled statements must be rejected")
	}
}

func TestApplyScheduleUnknownLabel(t *testing.T) {
	prog := workloads.Fig8Calls()
	sched := &Schedule{Groups: [][]string{{"s1"}, {"nope"}}}
	if _, err := ApplySchedule(prog, sched); err == nil {
		t.Error("unknown label must be rejected")
	}
}

func TestApplyScheduleNoParallelism(t *testing.T) {
	prog := workloads.Fig8Calls()
	sched := &Schedule{Groups: [][]string{{"s1", "s2", "s3", "s4"}}}
	if _, err := ApplySchedule(prog, sched); err == nil {
		t.Error("single-group schedule has nothing to apply")
	}
}

func TestApplySchedulePreAndPostStatements(t *testing.T) {
	prog := lang.MustParse(`
var a; var b; var pre; var post;
func main() {
  pre = 1;
  s1: a = 1;
  s2: b = 2;
  post = a + b;
}
`)
	cl := collector(t, prog)
	sched := Parallelize(cl, "s1", "s2")
	out, err := ApplySchedule(prog, sched)
	if err != nil {
		t.Fatal(err)
	}
	eq := VerifySchedule(prog, out)
	if !eq.Equal {
		t.Errorf("pre/post statements lost:\n%s", lang.Format(out))
	}
	src := lang.Format(out)
	if !strings.Contains(src, "pre = 1;") || !strings.Contains(src, "post = a + b;") {
		t.Errorf("surrounding statements missing:\n%s", src)
	}
}

func TestApplyScheduleWithControlFlowStatements(t *testing.T) {
	// Scheduled statements containing ifs/whiles must survive printing.
	prog := lang.MustParse(`
var a; var b;
func main() {
  s1: if a == 0 { a = 1; } else { a = 2; }
  s2: while b < 3 { b = b + 1; }
}
`)
	cl := collector(t, prog)
	sched := Parallelize(cl, "s1", "s2")
	if len(sched.Groups) != 2 {
		t.Fatalf("expected independence, got %s", sched)
	}
	out, err := ApplySchedule(prog, sched)
	if err != nil {
		t.Fatal(err)
	}
	eq := VerifySchedule(prog, out)
	if !eq.Equal {
		t.Errorf("control-flow restructuring changed semantics:\n%s", lang.Format(out))
	}
}

func TestParallelizeAbstractMatchesConcrete(t *testing.T) {
	prog := workloads.Fig8Calls()
	labels := []string{"s1", "s2", "s3", "s4"}

	cl := collector(t, prog)
	concrete := Parallelize(cl, labels...)

	res := abssem.Analyze(prog, abssem.Options{CollectFootprints: true})
	abstract := ParallelizeAbstract(res, labels...)

	if concrete.String() != abstract.String() {
		t.Errorf("schedules differ:\nconcrete: %s\nabstract: %s", concrete, abstract)
	}
	// And the abstract schedule, applied, preserves semantics.
	out, err := ApplySchedule(prog, abstract)
	if err != nil {
		t.Fatal(err)
	}
	if eq := VerifySchedule(prog, out); !eq.Equal {
		t.Error("abstract-derived schedule changed semantics")
	}
}

func TestParallelizeAbstractNeverFinerThanConcrete(t *testing.T) {
	// Abstract conflicts over-approximate: the abstract schedule can have
	// fewer or equal arms, never more. A hand-made program where the
	// abstract analysis is coarser: two statements write different cells
	// of the SAME allocation site — the field-insensitive abstract heap
	// merges them, the concrete analysis may too (same site) — both
	// conflict.
	prog := lang.MustParse(`
var o;
func main() {
  var p = malloc(2);
  w1: *p = 1;
  w2: *(p + 1) = 2;
  o = *p;
}
`)
	res := abssem.Analyze(prog, abssem.Options{CollectFootprints: true})
	sched := ParallelizeAbstract(res, "w1", "w2")
	if len(sched.Groups) != 1 {
		t.Errorf("same-site writes must stay grouped abstractly, got %s", sched)
	}
}

func TestMinimalDelaysFig2a(t *testing.T) {
	cl := collector(t, workloads.Fig2())
	plan := MinimalDelays(cl, [][]string{{"s1", "s2"}, {"s3", "s4"}})
	if len(plan.Enforced) != 2 {
		t.Fatalf("Fig2(a): both program arcs lie on the critical cycle:\n%s", plan)
	}
	if len(plan.Relaxed) != 0 {
		t.Errorf("Fig2(a): nothing may be relaxed:\n%s", plan)
	}
	if len(plan.Conflicts) != 2 {
		t.Errorf("want conflicts on A and B:\n%s", plan)
	}
}

func TestMinimalDelaysFig2b(t *testing.T) {
	// Reordered arm 1: s2 before s1. The critical cycle cannot close, so
	// no arc needs a delay — the compiler can parallelize all four
	// statements, which is the paper's Figure 2(b) claim derived from the
	// SS88 analysis itself.
	cl := collector(t, workloads.Fig2Reordered())
	plan := MinimalDelays(cl, [][]string{{"s2", "s1"}, {"s3", "s4"}})
	if len(plan.Enforced) != 0 {
		t.Fatalf("Fig2(b): no delays should be needed:\n%s", plan)
	}
	if len(plan.Relaxed) != 2 {
		t.Errorf("Fig2(b): both arcs relaxable:\n%s", plan)
	}
}

func TestMinimalDelaysDisjointArms(t *testing.T) {
	prog := lang.MustParse(`
var a; var b; var c; var d;
func main() {
  cobegin { s1: a = 1; s2: b = 2; } || { s3: c = 3; s4: d = 4; } coend
}
`)
	cl := collector(t, prog)
	plan := MinimalDelays(cl, [][]string{{"s1", "s2"}, {"s3", "s4"}})
	if len(plan.Conflicts) != 0 || len(plan.Enforced) != 0 {
		t.Errorf("disjoint arms need nothing:\n%s", plan)
	}
}

func TestMinimalDelaysPlanString(t *testing.T) {
	cl := collector(t, workloads.Fig2())
	plan := MinimalDelays(cl, [][]string{{"s1", "s2"}, {"s3", "s4"}})
	out := plan.String()
	for _, want := range []string{"ENFORCE s1 → s2", "ENFORCE s3 → s4", "conflict:"} {
		if !strings.Contains(out, want) {
			t.Errorf("plan rendering missing %q:\n%s", want, out)
		}
	}
}

// VerifyScheduleWith runs its two explorations one after the other, so
// a registry in ro.Metrics records two whole runs: the per-level stats
// on a 2-worker pool equal those of the same two runs done inline. Two
// runs at once on one registry would interleave BeginLevel/EndLevel
// and mix each other's counts into every level.
func TestVerifyScheduleSharedRegistry(t *testing.T) {
	prog := workloads.Philosophers(4)
	pool := sched.ForWorkers(2)
	defer pool.Close()
	levels := func(ro pipeline.RunOptions) []metrics.LevelStat {
		m := metrics.New()
		ro.Metrics = m
		if !VerifyScheduleWith(prog, prog, ro).Equal {
			t.Fatal("a program must verify against itself")
		}
		out := m.Snapshot().Levels
		for i := range out {
			out[i].Nanos = 0
		}
		return out
	}
	want := levels(pipeline.RunOptions{})
	for _, tc := range []struct {
		name string
		ro   pipeline.RunOptions
	}{
		{"pool", pipeline.RunOptions{Pool: pool}},
		// RunOptions.Workers is ignored: the width that once sent the
		// two explorations onto concurrent goroutines changes nothing.
		{"pool+workers", pipeline.RunOptions{Pool: pool, Workers: 2}},
	} {
		if got := levels(tc.ro); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %d level stats differ from the inline runs' %d", tc.name, len(got), len(want))
		}
	}
}
