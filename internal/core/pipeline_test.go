package core

import (
	"fmt"
	"reflect"
	"testing"

	"psa/internal/absdom"
	"psa/internal/abssem"
	"psa/internal/lang"
	"psa/internal/metrics"
	"psa/internal/sched"
	"psa/internal/sem"
)

// countSink is a minimal extra consumer for fused explorations.
type countSink struct {
	transitions int
	coEnabled   int
}

func (c *countSink) Transition(*sem.StepResult) { c.transitions++ }
func (c *countSink) CoEnabled(*sem.Config, lang.NodeID, lang.NodeID, sem.Loc, bool) {
	c.coEnabled++
}

// TestOneTraversal pins the tentpole contract: Collect plus every derived
// analysis query triggers exactly one exploration, observable through the
// metrics phase log, and the later queries land as cache hits.
func TestOneTraversal(t *testing.T) {
	m := metrics.New()
	a, _ := Parse(demoSrc)
	a.Configure(RunOptions{Metrics: m})

	a.Collect()
	a.Dependences("s1", "s2", "s3", "s4")
	a.Anomalies()
	a.DeallocationLists()

	var exploreCount int64
	for _, p := range m.Snapshot().Phases {
		if p.Name == "explore" {
			exploreCount = p.Count
		}
	}
	if exploreCount != 1 {
		t.Errorf("explore phase ran %d times, want exactly 1", exploreCount)
	}
	if got := m.Get(metrics.AnalysisCacheMiss); got != 1 {
		t.Errorf("analysis_cache_miss = %d, want 1", got)
	}
	if got := m.Get(metrics.AnalysisCacheHit); got != 3 {
		t.Errorf("analysis_cache_hit = %d, want 3 (Dependences, Anomalies, DeallocationLists)", got)
	}
}

// The collector cache must be keyed by the options that produced each
// collector: reconfiguring the analyzer yields a fresh collector, and
// restoring equivalent options returns the original.
func TestCollectCacheKeyedByOptions(t *testing.T) {
	a, _ := Parse(demoSrc)
	full := a.Collect()
	stub := a.Configure(RunOptions{Reduction: Stubborn}).Collect()
	if full == stub {
		t.Error("reconfigured analyzer returned the collector of different options")
	}
	again := a.Configure(RunOptions{}).Collect()
	if again != full {
		t.Error("restoring options must restore the cached collector")
	}
	// Execution-only settings share the key: a pool change is not a
	// result-relevant reconfiguration.
	pool := sched.ForWorkers(4)
	defer pool.Close()
	parallel := a.Configure(RunOptions{Pool: pool}).Collect()
	if parallel != full {
		t.Error("the pool must not invalidate the collector cache")
	}
}

// Extra sinks ride along in the collector's traversal, and a cached
// collector is reused without being re-fed while extras still observe a
// full stream.
func TestCollectExtraSinks(t *testing.T) {
	m := metrics.New()
	a, _ := Parse(demoSrc)
	a.Configure(RunOptions{Metrics: m})

	ex1 := &countSink{}
	cl := a.Collect(ex1)
	if ex1.transitions == 0 {
		t.Fatal("extra sink observed no transitions in the fused traversal")
	}

	ex2 := &countSink{}
	cl2 := a.Collect(ex2)
	if cl2 != cl {
		t.Error("extra sinks must not invalidate the collector cache")
	}
	if ex2.transitions != ex1.transitions || ex2.coEnabled != ex1.coEnabled {
		t.Errorf("late extra sink observed (%d,%d) callbacks, first observed (%d,%d)",
			ex2.transitions, ex2.coEnabled, ex1.transitions, ex1.coEnabled)
	}
	if got := m.Get(metrics.AnalysisCacheHit); got != 1 {
		t.Errorf("analysis_cache_hit = %d, want 1 (collector reuse under extras)", got)
	}
	if got := m.Get(metrics.PipelineFusedSinks); got != 3 {
		t.Errorf("pipeline_fused_sinks = %d, want 3 (collector+extra, then lone extra)", got)
	}
}

// Abstract()/AbstractWith() share one options-keyed cache: the default
// run and an explicit default-options run are the same entry, distinct
// options are distinct entries, and nothing is recomputed.
func TestAbstractCacheKeyed(t *testing.T) {
	m := metrics.New()
	a, _ := Parse(demoSrc)
	a.Configure(RunOptions{Metrics: m})

	def := a.Abstract()
	if a.AbstractWith(AbstractOptions{}) != def {
		t.Error("AbstractWith(defaults) must hit Abstract()'s cache entry")
	}
	if a.Abstract() != def {
		t.Error("Abstract() recomputed")
	}
	sign := a.AbstractWith(AbstractOptions{Domain: absdom.SignDomain{}})
	ival := a.AbstractWith(AbstractOptions{Domain: absdom.IntervalDomain{}})
	if sign == ival {
		t.Error("distinct domains collided in the abstract cache")
	}
	if a.AbstractWith(AbstractOptions{Domain: absdom.SignDomain{}}) != sign {
		t.Error("keyed abstract result not cached")
	}
	if hits := m.Get(metrics.AnalysisCacheHit); hits != 3 {
		t.Errorf("analysis_cache_hit = %d, want 3", hits)
	}
}

// A repeat query on the analyzer's own program replays no counters: the
// analyzer's one registry already holds its run's, so after two
// Abstract() calls the engine counters equal one scratch run's.
func TestAbstractRepeatQueryReplaysNothing(t *testing.T) {
	m := metrics.New()
	a, _ := Parse(demoSrc)
	a.Configure(RunOptions{Metrics: m})
	a.Abstract()
	a.Abstract()
	want := metrics.New()
	abssem.Analyze(lang.MustParse(demoSrc), abssem.Options{Metrics: want})
	if hits := m.Get(metrics.AnalysisCacheHit); hits != 1 {
		t.Fatalf("analysis_cache_hit = %d, want 1", hits)
	}
	got, wantCtr := m.Snapshot().DeterministicCounters(), want.Snapshot().DeterministicCounters()
	if !reflect.DeepEqual(got, wantCtr) {
		t.Fatalf("counters after a repeat query %v, one scratch run %v", got, wantCtr)
	}
}

// A parallel-configured analyzer produces bit-identical analyses, and
// its Explore and VerifyAgainst inherit the configured pool.
func TestConfiguredParallelMatchesSequential(t *testing.T) {
	seq, _ := Parse(demoSrc)
	par, _ := Parse(demoSrc)
	pool := sched.ForWorkers(4)
	defer pool.Close()
	par.Configure(RunOptions{Pool: pool})

	ds := seq.Dependences("s1", "s2", "s3", "s4")
	dp := par.Dependences("s1", "s2", "s3", "s4")
	if fmt.Sprint(ds) != fmt.Sprint(dp) {
		t.Errorf("dependences differ across worker counts:\nseq %v\npar %v", ds, dp)
	}
	rs := seq.Explore(ExploreOptions{Reduction: Full})
	rp := par.Explore(ExploreOptions{Reduction: Full})
	if rs.String() != rp.String() {
		t.Errorf("exploration differs across worker counts:\nseq %s\npar %s", rs, rp)
	}
	if seq.VerifyAgainst(par).Equal != par.VerifyAgainst(seq).Equal {
		t.Error("verification verdict depends on configuration")
	}
}

// An explicit caller sink still works through the facade's Explore.
func TestExploreHonorsCallerSink(t *testing.T) {
	a, _ := Parse(demoSrc)
	s := &countSink{}
	a.Explore(ExploreOptions{Sink: s})
	if s.transitions == 0 {
		t.Error("caller sink ignored by facade Explore")
	}
}
