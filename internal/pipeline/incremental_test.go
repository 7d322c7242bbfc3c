package pipeline

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"psa/internal/abssem"
	"psa/internal/explore"
	"psa/internal/lang"
	"psa/internal/metrics"
	"psa/internal/sched"
	"psa/internal/workloads"
)

const incBase = `
var g = 0;
var h = 0;

func bump(x) {
  g = g + x;
}

func poke() {
  h = h + 1;
}

func main() {
  cobegin {
    bump(1);
  } || {
    poke();
  } coend
  g = g + h;
}
`

// Same program with bump's parameter renamed — α-equivalent, so the
// whole-program fast path must fire (without clan folding).
const incRenamed = `
var g = 0;
var h = 0;

func bump(y) {
  g = g + y;
}

func poke() {
  h = h + 1;
}

func main() {
  cobegin {
    bump(1);
  } || {
    poke();
  } coend
  g = g + h;
}
`

// A real edit: bump's body changes, poke is untouched.
const incEdited = `
var g = 0;
var h = 0;

func bump(x) {
  g = g + x + 1;
}

func poke() {
  h = h + 1;
}

func main() {
  cobegin {
    bump(1);
  } || {
    poke();
  } coend
  g = g + h;
}
`

// scratchCounters runs a from-scratch analysis with a fresh registry and
// returns (digest, deterministic counters).
func scratchCounters(t *testing.T, src string, ro RunOptions) (string, map[string]int64) {
	t.Helper()
	m := metrics.New()
	ro.Metrics = m
	res := Analyze(lang.MustParse(src), ro, nil)
	return res.Digest(), m.Snapshot().DeterministicCounters()
}

func TestIncrementalBitIdentical(t *testing.T) {
	pool := sched.ForWorkers(4)
	t.Cleanup(pool.Close)
	for _, tc := range []struct {
		name string
		ro   RunOptions
	}{
		{"seq", RunOptions{}},
		// A 4-worker pool; the abstract engine runs on sched.DepRounds.
		// (The name predates the deleted leveled rounds.)
		{"leveled4", RunOptions{Pool: pool}},
		// RunOptions.Sched is ignored: both values run the same
		// executor, bit-identical to scratch.
		{"dep4", RunOptions{Pool: pool, Sched: sched.DepDriven}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inc := NewIncremental(tc.ro, nil)
			chain := []string{incBase, incRenamed, incEdited, incBase}
			for i, src := range chain {
				wantDig, wantCtr := scratchCounters(t, src, tc.ro)
				ro := tc.ro
				m := metrics.New()
				ro.Metrics = m
				inc.Configure(ro) // thread a fresh registry per step
				got := inc.AnalyzeEdit(lang.MustParse(src))
				if dig := got.Digest(); dig != wantDig {
					t.Fatalf("step %d: incremental digest %s != scratch %s", i, dig, wantDig)
				}
				if ctr := m.Snapshot().DeterministicCounters(); !reflect.DeepEqual(ctr, wantCtr) {
					t.Fatalf("step %d: deterministic counters diverged:\nincremental %v\nscratch     %v",
						i, ctr, wantCtr)
				}
			}
		})
	}
}

func TestIncrementalFastPathFires(t *testing.T) {
	m := metrics.New()
	inc := NewIncremental(RunOptions{Metrics: m}, nil)
	inc.AnalyzeEdit(lang.MustParse(incBase))
	if m.Get(metrics.AnalysisCacheMiss) != 1 {
		t.Fatalf("cold call: want 1 miss, got %d", m.Get(metrics.AnalysisCacheMiss))
	}

	// α-equivalent rename: no fixpoint, result rebound onto the new
	// program so label queries resolve against it.
	visits := m.Get(metrics.AbsVisits)
	res := inc.AnalyzeEdit(lang.MustParse(incRenamed))
	if m.Get(metrics.AnalysisCacheHit) != 1 {
		t.Fatalf("rename: want fast-path hit, got %d hits / %d misses",
			m.Get(metrics.AnalysisCacheHit), m.Get(metrics.AnalysisCacheMiss))
	}
	// The replayed deltas must make the registry read exactly as if the
	// fixpoint had run again.
	if got := m.Get(metrics.AbsVisits); got != 2*visits {
		t.Fatalf("rename: replayed AbsVisits = %d, want %d", got, 2*visits)
	}
	if res.Cancelled || res.States == 0 {
		t.Fatalf("rename: implausible reused result %+v", res)
	}

	// Real edit: exactly one more miss, and the plain fixpoint it runs
	// reads like a scratch run in both result and counters.
	em := metrics.New()
	inc.Configure(RunOptions{Metrics: em})
	res = inc.AnalyzeEdit(lang.MustParse(incEdited))
	if em.Get(metrics.AnalysisCacheMiss) != 1 || em.Get(metrics.AnalysisCacheHit) != 0 {
		t.Fatalf("edit: want exactly one miss, got %d hits / %d misses",
			em.Get(metrics.AnalysisCacheHit), em.Get(metrics.AnalysisCacheMiss))
	}
	wantDig, wantCtr := scratchCounters(t, incEdited, RunOptions{})
	if res.Digest() != wantDig {
		t.Fatal("edit: result diverged from scratch")
	}
	if ctr := em.Snapshot().DeterministicCounters(); !reflect.DeepEqual(ctr, wantCtr) {
		t.Fatalf("edit: deterministic counters diverged:\nincremental %v\nscratch     %v", ctr, wantCtr)
	}
}

func TestIncrementalClanFoldUsesNamedHash(t *testing.T) {
	// Under clan folding a local rename is NOT a no-op edit (arm grouping
	// sees names), so the fast path must not fire — but the result must
	// still match scratch.
	adjust := func(o *abssem.Options) { o.ClanFold = true }
	m := metrics.New()
	inc := NewIncremental(RunOptions{Metrics: m}, adjust)
	inc.AnalyzeEdit(lang.MustParse(incBase))
	res := inc.AnalyzeEdit(lang.MustParse(incRenamed))
	if m.Get(metrics.AnalysisCacheHit) != 0 {
		t.Fatal("rename took the fast path under ClanFold; named hash not honored")
	}
	want := Analyze(lang.MustParse(incRenamed), RunOptions{}, adjust).Digest()
	if res.Digest() != want {
		t.Fatalf("clan-fold incremental diverged from scratch")
	}
}

// A cache hit replays exactly the deterministic counters a scratch run
// of the submitted program records, for both engines, and a nil
// registry gets nothing.
func TestCacheHitReplaysScratchCounters(t *testing.T) {
	c := NewCache(0)
	for _, tc := range []struct {
		name  string
		first string
		again string
		job   func(src string, ro RunOptions) Job
		run   func(src string, ro RunOptions)
	}{
		{"abstract", incBase, incRenamed,
			func(src string, ro RunOptions) Job { return AnalyzeJob(lang.MustParse(src), ro, nil) },
			func(src string, ro RunOptions) { Analyze(lang.MustParse(src), ro, nil) }},
		{"explore", incBase, incBase,
			func(src string, ro RunOptions) Job { return ExploreJob(src, lang.MustParse(src), ro, true) },
			func(src string, ro RunOptions) { Explore(lang.MustParse(src), ro) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool := sched.ForWorkers(4)
			t.Cleanup(pool.Close)
			ro := RunOptions{Reduction: explore.Stubborn, Pool: pool}
			if _, hit := c.Do(context.Background(), tc.job(tc.first, ro)); hit {
				t.Fatal("cold lookup hit")
			}
			m := metrics.New()
			ro.Metrics = m
			if _, hit := c.Do(context.Background(), tc.job(tc.again, ro)); !hit {
				t.Fatal("same key missed")
			}
			want := metrics.New()
			tc.run(tc.again, RunOptions{Reduction: explore.Stubborn, Metrics: want})
			got, wantCtr := m.Snapshot().DeterministicCounters(), want.Snapshot().DeterministicCounters()
			if !reflect.DeepEqual(got, wantCtr) {
				t.Fatalf("replayed counters %v, scratch %v", got, wantCtr)
			}
			if m.Get(metrics.AnalysisCacheHit) != 1 {
				t.Fatalf("hit not counted: %d", m.Get(metrics.AnalysisCacheHit))
			}
			if _, hit := c.Do(context.Background(), tc.job(tc.again, RunOptions{Reduction: explore.Stubborn})); !hit {
				t.Fatal("nil-registry lookup missed")
			}
		})
	}
}

// A cancelled run's cut depends on timing, so the cache never stores
// it; the next lookup misses and the rerun is stored.
func TestCacheNeverStoresCancelled(t *testing.T) {
	prog := workloads.Philosophers(3)
	src := lang.Format(prog)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := NewCache(0)
	for _, job := range []Job{AnalyzeJob(prog, RunOptions{}, nil), ExploreJob(src, prog, RunOptions{}, false)} {
		if res := c.Run(ctx, job); !res.Cancelled() {
			t.Fatalf("%s: pre-cancelled run completed", job.Key)
		}
		if _, hit := c.Lookup(job); hit {
			t.Fatalf("%s: cancelled result was stored", job.Key)
		}
		if res := c.Run(context.Background(), job); res.Cancelled() {
			t.Fatalf("%s: live run cancelled", job.Key)
		}
		if _, hit := c.Lookup(job); !hit {
			t.Fatalf("%s: completed result was not stored", job.Key)
		}
	}
}

// The cache holds at most its bound, evicting the least recently used.
func TestCacheEvictsAtBound(t *testing.T) {
	c := NewCache(2)
	job := func(src string) Job { return AnalyzeJob(lang.MustParse(src), RunOptions{}, nil) }
	ctx := context.Background()
	c.Do(ctx, job(incBase))
	c.Do(ctx, job(incEdited))
	c.Do(ctx, job(incBase)) // touch: incEdited is now the oldest
	c.Do(ctx, job(lang.Format(workloads.Philosophers(2))))
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("stats %+v, want 1 eviction", st)
	}
	if _, hit := c.Lookup(job(incEdited)); hit {
		t.Fatal("least recently used entry survived the bound")
	}
	if _, hit := c.Lookup(job(incBase)); !hit {
		t.Fatal("recently used entry was evicted")
	}
}

// Concurrent callers share one cache: every answer, hit or run, equals
// the scratch result and counters of its program.
func TestCacheConcurrentCallers(t *testing.T) {
	srcs := []string{incBase, incRenamed, incEdited}
	type want struct {
		dig string
		ctr map[string]int64
	}
	wants := make([]want, len(srcs))
	for i, src := range srcs {
		wants[i].dig, wants[i].ctr = scratchCounters(t, src, RunOptions{})
	}
	c := NewCache(2)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 6; k++ {
				i := (g + k) % len(srcs)
				m := metrics.New()
				res, _ := c.Do(context.Background(), AnalyzeJob(lang.MustParse(srcs[i]), RunOptions{Metrics: m}, nil))
				if dig := res.Abstract.Digest(); dig != wants[i].dig {
					t.Errorf("program %d: digest %s, scratch %s", i, dig, wants[i].dig)
				}
				if ctr := m.Snapshot().DeterministicCounters(); !reflect.DeepEqual(ctr, wants[i].ctr) {
					t.Errorf("program %d: counters %v, scratch %v", i, ctr, wants[i].ctr)
				}
			}
		}(g)
	}
	wg.Wait()
}
