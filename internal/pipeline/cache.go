package pipeline

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"sync"

	"psa/internal/abssem"
	"psa/internal/explore"
	"psa/internal/lang"
	"psa/internal/metrics"
)

// A Job is one cacheable engine run. ExploreJob and AnalyzeJob are the
// only code that derives its Key, the content address of its result:
// equal keys guarantee bit-identical results and deterministic counters
// at any worker count.
type Job struct {
	Key string
	// ProgramHash is the program's lang hash in the job's mode: the named
	// hash under clan folding, the α-renamed one otherwise.
	ProgramHash string

	prog *lang.Program
	m    *metrics.Registry
	run  func(context.Context, *metrics.Registry) Result
}

// ExploreJob is a concrete exploration of prog, parsed from src, under
// ro; with outcomes, its Result also carries the run's canonical
// terminal-outcome set, which is then part of the key. Its key keeps the
// exact source text, not a program hash: an α-renamed or reformatted
// version explores the same space, but an error outcome renders its
// source position and the asserted expression ("ERR:7:5: assertion
// failed: 3 != 3 * a4"), so outcome lists differ.
func ExploreJob(src string, prog *lang.Program, ro RunOptions, outcomes bool) Job {
	sum := sha256.Sum256([]byte(src))
	key := "explore|" + hex.EncodeToString(sum[:]) + "|" + ro.Key()
	if outcomes {
		key += "|outcomes"
	}
	return Job{
		Key:         key,
		ProgramHash: lang.HashProgram(prog).ProgramHash(false),
		prog:        prog,
		m:           ro.Metrics,
		run: func(ctx context.Context, m *metrics.Registry) Result {
			r := ro
			r.Metrics = m
			res := Result{Explore: ExploreContext(ctx, prog, r)}
			if outcomes {
				res.Outcomes = res.Explore.TerminalStoreSet()
			}
			return res
		},
	}
}

// AnalyzeJob is an abstract fixpoint of prog under ro, with engine knobs
// set through adjust as for Analyze. Its key is the mode-appropriate
// program hash plus AbstractKey: the hash covers every semantic input of
// the fixpoint and no position, so a renamed or reformatted resubmission
// shares the key. Clan folding groups cobegin arms by rendered body
// text, which sees local names, so only the named hash certifies the
// same input under it.
func AnalyzeJob(prog *lang.Program, ro RunOptions, adjust func(*abssem.Options)) Job {
	ao := ro.AbstractOptions()
	if adjust != nil {
		adjust(&ao)
	}
	h := lang.HashProgram(prog).ProgramHash(ao.Normalized().ClanFold)
	return Job{
		Key:         "abstract|" + h + "|" + AbstractKey(ao),
		ProgramHash: h,
		prog:        prog,
		m:           ao.Metrics,
		run: func(ctx context.Context, m *metrics.Registry) Result {
			o := ao
			o.Metrics = m
			return Result{Abstract: abssem.AnalyzeContext(ctx, prog, o)}
		},
	}
}

// Result is a job's result: Explore for explore jobs, Abstract for
// abstract ones. Outcomes is Explore.TerminalStoreSet() when the job
// asked for it (ExploreJob), nil otherwise.
type Result struct {
	Explore  *explore.Result
	Abstract *abssem.Result
	Outcomes []string
}

// Cancelled reports that the run was cancelled before completion.
func (r Result) Cancelled() bool {
	if r.Abstract != nil {
		return r.Abstract.Cancelled
	}
	return r.Explore.Cancelled
}

// Cache is the bounded, least-recently-used store of completed results,
// addressed by Job.Key: whole Results (NewCache) or what a client keeps
// of them (NewSummaryCache). It is safe for concurrent use and never
// holds its lock while an engine runs; callers that want one run per
// key coalesce above it. Cancelled results are never stored: their cut
// depends on timing.
type Cache[V any] struct {
	mu      sync.Mutex
	max     int
	keep    func(Result) V
	rebind  func(V, *lang.Program) V // nil: kept values hold no program
	entries map[string]*list.Element
	lru     list.List // of *cacheEntry[V], most recently used first
	stats   CacheStats
}

// CacheStats counts a cache's hits and evictions. Misses are counted
// as analysis_cache_miss in each job's registry.
type CacheStats struct{ Hits, Evictions int64 }

type cacheEntry[V any] struct {
	key    string
	prog   *lang.Program // the program val answers for, when rebound
	val    V
	deltas []int64 // deterministic counter deltas of the run, by Counter
}

// NewCache returns a cache of at most max whole results (max <= 0: no
// bound). An abstract hit on another parse of the key is rebound onto it
// (abssem.ReuseResult) and the entry keeps that binding.
func NewCache(max int) *Cache[Result] {
	c := NewSummaryCache(max, func(r Result) Result { return r })
	c.rebind = func(r Result, prog *lang.Program) Result {
		if r.Abstract != nil {
			r.Abstract = abssem.ReuseResult(r.Abstract, prog)
		}
		return r
	}
	return c
}

// NewSummaryCache returns a cache of at most max values (max <= 0: no
// bound), each what keep makes of a result.
func NewSummaryCache[V any](max int, keep func(Result) V) *Cache[V] {
	return &Cache[V]{max: max, keep: keep, entries: map[string]*list.Element{}}
}

// Stats returns the cache's hit and eviction counts.
func (c *Cache[V]) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Lookup answers j from the cache, counting analysis_cache_hit or _miss
// in the job's registry. A hit replays the deterministic counter deltas
// the stored run recorded into that registry (nil gets nothing), so it
// reads as a scratch run even in the metrics. The one exception is a
// repeat query: a hit on the very program a whole-result entry is
// already bound to returns the stored result itself and replays
// nothing, because that program's run, or the hit that bound it,
// already recorded them (core.Analyzer asks again on one registry).
func (c *Cache[V]) Lookup(j Job) (V, bool) {
	c.mu.Lock()
	elem, ok := c.entries[j.Key]
	if !ok {
		c.mu.Unlock()
		j.m.Inc(metrics.AnalysisCacheMiss)
		var zero V
		return zero, false
	}
	c.stats.Hits++
	c.lru.MoveToFront(elem)
	e := elem.Value.(*cacheEntry[V])
	repeat := c.rebind != nil && e.prog == j.prog
	if c.rebind != nil && !repeat {
		e.val, e.prog = c.rebind(e.val, j.prog), j.prog
	}
	val := e.val
	c.mu.Unlock()
	j.m.Inc(metrics.AnalysisCacheHit)
	if !repeat {
		for ctr, d := range e.deltas {
			j.m.Add(metrics.Counter(ctr), d)
		}
	}
	return val, true
}

// Run runs j's engine under ctx and returns what the cache keeps of the
// result, storing it unless the run was cancelled. The deltas a hit
// replays are read off the job's registry (a private one when it has
// none), so no other run may record into it meanwhile.
func (c *Cache[V]) Run(ctx context.Context, j Job) V {
	m := j.m
	if m == nil {
		m = metrics.New()
	}
	var deltas []int64 // EachCounter visits counters in declaration order
	metrics.EachCounter(func(ctr metrics.Counter) { deltas = append(deltas, -m.Get(ctr)) })
	res := j.run(ctx, m)
	val := c.keep(res)
	if res.Cancelled() {
		return val
	}
	metrics.EachCounter(func(ctr metrics.Counter) {
		if deltas[ctr] += m.Get(ctr); ctr.PerfOnly() {
			deltas[ctr] = 0
		}
	})
	e := &cacheEntry[V]{key: j.Key, val: val, deltas: deltas}
	if c.rebind != nil {
		e.prog = j.prog
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[j.Key]; ok {
		return val // a concurrent miss stored the identical result first
	}
	c.entries[j.Key] = c.lru.PushFront(e)
	for c.max > 0 && c.lru.Len() > c.max {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry[V]).key)
		c.stats.Evictions++
	}
	return val
}

// Do is Lookup, then Run on a miss; hit reports which.
func (c *Cache[V]) Do(ctx context.Context, j Job) (val V, hit bool) {
	if val, ok := c.Lookup(j); ok {
		return val, true
	}
	return c.Run(ctx, j), false
}
