package pipeline

import (
	"context"
	"sync"

	"psa/internal/abssem"
	"psa/internal/lang"
)

// Incremental analyzes a stream of program versions under fixed options
// through a one-entry Cache: a version sharing the previous one's
// AnalyzeJob key (an α-equivalent edit, or a named-equal one under clan
// folding) is answered from the cache; any other runs the plain
// fixpoint. Results and deterministic counters equal a from-scratch
// Analyze at any worker count. A thin wrapper kept for callers that hold
// a session per edit stream.
type Incremental struct {
	mu     sync.Mutex
	ro     RunOptions
	adjust func(*abssem.Options)
	cache  *Cache[Result]
}

// NewIncremental opens a session under the shared options, with engine
// knobs set through adjust as for Analyze (nil keeps the defaults).
func NewIncremental(ro RunOptions, adjust func(*abssem.Options)) *Incremental {
	return &Incremental{ro: ro, adjust: adjust, cache: NewCache(1)}
}

// Configure replaces the session's run options and returns the session
// for chaining. Meant for the execution-only fields (pool, metrics); a
// result-relevant change simply misses the cache.
func (inc *Incremental) Configure(ro RunOptions) *Incremental {
	inc.mu.Lock()
	inc.ro = ro
	inc.mu.Unlock()
	return inc
}

// AnalyzeEdit analyzes prog, answering from the previous version when
// the two share a cache key. Pass each version as its own parse:
// resubmitting the very program the previous call answered is a repeat
// query, which replays no counters (Cache.Lookup).
func (inc *Incremental) AnalyzeEdit(prog *lang.Program) *abssem.Result {
	inc.mu.Lock()
	ro := inc.ro
	inc.mu.Unlock()
	res, _ := inc.cache.Do(context.Background(), AnalyzeJob(prog, ro, inc.adjust))
	return res.Abstract
}
