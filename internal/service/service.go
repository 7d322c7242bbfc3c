// Package service is the analysis-as-a-service layer behind cmd/psad:
// an http.Handler that accepts cobegin programs plus run options as
// JSON, executes them through one process-wide worker pool, and serves
// the results the engines' determinism contract makes cacheable.
//
// Three properties organize the design:
//
//   - One pool, many runs. Every analysis executes on the service's
//     shared sched.Pool; concurrent submissions interleave on the same
//     persistent workers instead of spawning goroutines per request.
//     Workers are server-side, execution-only configuration — by the
//     engines' determinism contract they never change results, so they
//     are not part of a request.
//
//   - One cache, keyed by content. A request is parsed first (a parse
//     error is a 400 and starts nothing) and becomes a pipeline.Job,
//     whose key is its result's content address (an α-equivalent
//     abstract resubmission hits). Completed results live in one
//     pipeline.Cache bounded by Config.CacheMax; an identical request
//     arriving while the job runs attaches to its in-flight run (one
//     engine run, N responses). When the last attached requester
//     detaches (client disconnect), the run's context is cancelled and
//     the work stops at the engine's next merge boundary.
//
//   - Cancellation is truncation. A cancelled run returns the engines'
//     coherent partial result (Cancelled set, same cut shape as the
//     MaxConfigs/MaxStates truncation). Because the cut point is
//     timing-dependent, the cache never stores it.
//
// A run that panics answers 500 to every attached request, is counted
// in Stats.RunsPanicked, and stores nothing.
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"

	"psa/internal/absdom"
	"psa/internal/abssem"
	"psa/internal/explore"
	"psa/internal/lang"
	"psa/internal/metrics"
	"psa/internal/pipeline"
	"psa/internal/sched"
)

// Request is one analysis submission.
type Request struct {
	// Program is the cobegin source text to analyze.
	Program string `json:"program"`
	// Analysis selects the engine: "explore" (the concrete explorer,
	// the default) or "abstract" (the abstract fixpoint engine).
	Analysis string `json:"analysis,omitempty"`
	// Options are the result-relevant run options. Execution-only
	// configuration (workers) is server-side.
	Options Options `json:"options,omitempty"`
	// Base is ignored. It named the version an abstract request edits;
	// the result cache now keys abstract runs on the program hash, so an
	// α-equivalent resubmission hits without it. Kept so existing
	// clients keep compiling.
	Base string `json:"base,omitempty"`
}

// Options is the result-relevant subset of pipeline.RunOptions plus the
// abstract engine's domain knobs — exactly the fields that can change
// what a run computes. Zero values select the engines' defaults.
type Options struct {
	// Reduction selects concrete expansion: "full" (default) or
	// "stubborn".
	Reduction string `json:"reduction,omitempty"`
	// Coarsen enables virtual coarsening of non-critical runs.
	Coarsen bool `json:"coarsen,omitempty"`
	// MaxConfigs caps distinct configurations (explore) or abstract
	// states (abstract); 0 selects the engine default.
	MaxConfigs int `json:"max_configs,omitempty"`
	// ExactKeys stores full canonical keys in the concrete visited set.
	ExactKeys bool `json:"exact_keys,omitempty"`
	// Domain selects the abstract domain: "const" (default), "sign", or
	// "interval". Abstract runs only.
	Domain string `json:"domain,omitempty"`
	// ClanFold folds identical cobegin arms during abstract
	// interpretation.
	ClanFold bool `json:"clan_fold,omitempty"`
	// Outcomes includes the canonical terminal-outcome set in explore
	// responses (explore.Result.TerminalStoreSet).
	Outcomes bool `json:"outcomes,omitempty"`
}

// Response is one analysis result. Summary is the engine Result's
// String() rendering — bit-identical to what cmd/psa prints for the
// same program and options at any worker count.
type Response struct {
	Analysis  string `json:"analysis"`
	Summary   string `json:"summary"`
	States    int    `json:"states"`
	Edges     int    `json:"edges,omitempty"`
	Visits    int    `json:"visits,omitempty"`
	Terminals int    `json:"terminals"`
	Errors    int    `json:"errors,omitempty"`
	MayError  bool   `json:"may_error,omitempty"`
	Truncated bool   `json:"truncated,omitempty"`
	// Cancelled marks a partial result: the run's context was cancelled
	// (service shutdown) before completion. The artifacts cover the
	// explored prefix coherently but the cut is timing-dependent, so
	// the result was not cached.
	Cancelled bool     `json:"cancelled,omitempty"`
	Outcomes  []string `json:"outcomes,omitempty"`
	// ProgramHash identifies the analyzed program version under the
	// options' hash mode (the named body hash under clan folding, the
	// α-renamed one otherwise).
	ProgramHash string `json:"program_hash,omitempty"`
	// Incremental is always false: incremental sessions are gone (see
	// Request.Base). Kept so existing clients keep compiling.
	Incremental bool `json:"incremental,omitempty"`
	// Coalesced marks a response served by attaching to another
	// request's in-flight run; Cached one served from the result cache.
	// Per-request bookkeeping, not part of the result.
	Coalesced bool   `json:"coalesced,omitempty"`
	Cached    bool   `json:"cached,omitempty"`
	Error     string `json:"error,omitempty"`
}

// Stats is a snapshot of the service's request bookkeeping, exposed for
// tests and the /metrics endpoint.
type Stats struct {
	// Requests counts decoded submissions, including those refused for
	// bad options or program text.
	Requests      int64 `json:"requests"`
	Runs          int64 `json:"runs"`
	RunsCancelled int64 `json:"runs_cancelled"`
	// RunsPanicked counts runs that panicked; each answered 500.
	RunsPanicked int64 `json:"runs_panicked"`
	CoalesceHits int64 `json:"coalesce_hits"`
	CacheHits    int64 `json:"cache_hits"`
	// CacheEvictions counts completed results dropped from the bounded
	// result cache (least recently used first, see Config.CacheMax).
	CacheEvictions int64 `json:"cache_evictions"`
	// IncrementalRuns is always 0 (see Request.Base). Kept so existing
	// clients keep compiling.
	IncrementalRuns int64 `json:"incremental_runs"`
	Inflight        int   `json:"inflight"`
}

// Config configures a Service.
type Config struct {
	// Workers sizes the shared pool both engines run on (0/1
	// sequential, negative GOMAXPROCS).
	Workers int
	// MaxBody caps the request body in bytes (default 1 MiB).
	MaxBody int64
	// CacheMax bounds the result cache: at most CacheMax results are
	// retained, evicting the least recently used (0 selects the default
	// of 1024; negative disables the bound).
	CacheMax int
}

// Service executes analysis requests on one shared pool with in-flight
// coalescing and a content-addressed result cache. Create with New,
// serve via Handler, release with Close.
type Service struct {
	cfg  Config
	pool *sched.Pool

	// base is the parent of every run context; Close cancels it so
	// in-flight runs stop at their next merge boundary.
	base   context.Context
	cancel context.CancelFunc

	cache *pipeline.Cache[Response] // of summarize'd results

	mu       sync.Mutex
	flights  map[string]*flight // by Job.Key
	stats    Stats
	counters map[string]int64 // engine counters aggregated across runs
	closed   bool

	// runHook, when set, runs at the start of every run (a test seam).
	runHook func()
}

// flight is one in-flight engine run shared by every coalesced request.
// res and panicked are set before done closes.
type flight struct {
	done chan struct{}
	res  Response // summarize'd
	// panicked is the value the run panicked with, nil if it did not (a
	// panic(nil) recovers as *runtime.PanicNilError).
	panicked any
	refs     int // attached requests; last detach cancels the run
	cancel   context.CancelFunc
}

// New builds a Service with its own worker pool.
func New(cfg Config) *Service {
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 1 << 20
	}
	if cfg.CacheMax == 0 {
		cfg.CacheMax = 1024
	}
	base, cancel := context.WithCancel(context.Background())
	return &Service{
		cfg:      cfg,
		pool:     sched.ForWorkers(cfg.Workers),
		base:     base,
		cancel:   cancel,
		cache:    pipeline.NewSummaryCache(cfg.CacheMax, summarize),
		flights:  map[string]*flight{},
		counters: map[string]int64{},
	}
}

// Close cancels every in-flight run and releases the worker pool. Runs
// observe the cancellation at their next merge boundary, return partial
// results to any still-attached clients, and drain before the pool
// closes. Safe to call more than once.
func (s *Service) Close() {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	inflight := make([]*flight, 0, len(s.flights))
	for _, f := range s.flights {
		inflight = append(inflight, f)
	}
	s.mu.Unlock()
	if already {
		return
	}
	s.cancel()
	for _, f := range inflight {
		<-f.done
	}
	s.pool.Close()
}

// Stats returns a snapshot of the request bookkeeping.
func (s *Service) Stats() Stats {
	cs := s.cache.Stats()
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.CacheHits, st.CacheEvictions, st.Inflight = cs.Hits, cs.Evictions, len(s.flights)
	return st
}

// Handler returns the service's HTTP routes:
//
//	POST /analyze  submit a Request, receive a Response
//	GET  /healthz  liveness probe
//	GET  /metrics  service stats + aggregated engine counters (JSON)
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/analyze", s.handleAnalyze)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// metricsBody is the /metrics JSON shape: request bookkeeping plus the
// engine counters aggregated across every completed run and cache hit
// (each request has its own metrics.Registry — the per-level stats are
// single-run state — which folds in here; a hit carries the
// deterministic counters the cache replayed and analysis_cache_hit).
type metricsBody struct {
	Service  Stats            `json:"service"`
	Counters map[string]int64 `json:"counters"`
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	body := metricsBody{Service: s.Stats(), Counters: map[string]int64{}}
	s.mu.Lock()
	for k, v := range s.counters {
		body.Counters[k] = v
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, body)
}

func (s *Service) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, Response{Error: "POST only"})
		return
	}
	var req Request
	body, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.MaxBody+1))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, Response{Error: "read body: " + err.Error()})
		return
	}
	if int64(len(body)) > s.cfg.MaxBody {
		writeJSON(w, http.StatusRequestEntityTooLarge,
			Response{Error: fmt.Sprintf("body exceeds %d bytes", s.cfg.MaxBody)})
		return
	}
	if err := json.Unmarshal(body, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, Response{Error: "decode request: " + err.Error()})
		return
	}
	job, reg, err := s.job(&req)

	s.mu.Lock()
	s.stats.Requests++
	if err != nil {
		s.mu.Unlock()
		writeJSON(w, http.StatusBadRequest, Response{Analysis: req.Analysis, Error: err.Error()})
		return
	}
	if s.closed {
		s.mu.Unlock()
		writeJSON(w, http.StatusServiceUnavailable, Response{Error: "service shutting down"})
		return
	}
	if res, ok := s.cache.Lookup(job); ok {
		s.fold(reg)
		s.mu.Unlock()
		resp := render(job, res)
		resp.Cached = true
		writeJSON(w, http.StatusOK, resp)
		return
	}
	f, coalesced := s.flights[job.Key]
	if coalesced {
		// The flight's run records into its leader's registry; this
		// request's own lookup (the miss that led here) folds now.
		s.stats.CoalesceHits++
		f.refs++
		s.fold(reg)
	} else {
		ctx, cancel := context.WithCancel(s.base)
		f = &flight{done: make(chan struct{}), cancel: cancel, refs: 1}
		s.flights[job.Key] = f
		s.stats.Runs++
		go s.run(ctx, f, job, reg)
	}
	s.mu.Unlock()

	select {
	case <-f.done:
	case <-r.Context().Done():
		// Client gone. Detach; the last detaching requester cancels the
		// run, which then stops at the engine's next merge boundary.
		s.mu.Lock()
		f.refs--
		last := f.refs == 0
		s.mu.Unlock()
		if last {
			f.cancel()
		}
		return
	}
	if p := f.panicked; p != nil {
		if wp, ok := p.(*sched.WorkerPanic); ok {
			p = wp.Value // the client gets the value, not the worker's stack
		}
		writeJSON(w, http.StatusInternalServerError,
			Response{Analysis: req.Analysis, Error: fmt.Sprint("analysis panicked: ", p)})
		return
	}
	resp := render(job, f.res)
	resp.Coalesced = coalesced
	writeJSON(w, http.StatusOK, resp)
}

// job validates req, parses its program, and builds the pipeline job
// that computes it, recording into the request's registry (made only
// once the request is valid). Every error is the client's.
func (s *Service) job(req *Request) (pipeline.Job, *metrics.Registry, error) {
	switch req.Analysis {
	case "", "explore":
		req.Analysis = "explore"
	case "abstract":
	default:
		return pipeline.Job{}, nil, fmt.Errorf("unknown analysis %q (explore|abstract)", req.Analysis)
	}
	red := explore.Full
	switch req.Options.Reduction {
	case "", "full":
	case "stubborn":
		red = explore.Stubborn
	default:
		return pipeline.Job{}, nil, fmt.Errorf("unknown reduction %q (full|stubborn)", req.Options.Reduction)
	}
	var dom absdom.NumDomain
	if req.Analysis == "abstract" && req.Options.Domain != "" {
		if dom = absdom.DomainByName(req.Options.Domain); dom == nil {
			return pipeline.Job{}, nil, fmt.Errorf("unknown domain %q (const|sign|interval)", req.Options.Domain)
		}
	}
	prog, err := lang.Parse(req.Program)
	if err != nil {
		return pipeline.Job{}, nil, err
	}
	reg := metrics.New()
	ro := pipeline.RunOptions{
		Reduction:  red,
		Coarsen:    req.Options.Coarsen,
		Workers:    s.cfg.Workers,
		Pool:       s.pool,
		MaxConfigs: req.Options.MaxConfigs,
		ExactKeys:  req.Options.ExactKeys,
		Metrics:    reg,
	}
	if req.Analysis == "abstract" {
		return pipeline.AnalyzeJob(prog, ro, func(ao *abssem.Options) {
			if dom != nil {
				ao.Domain = dom
			}
			ao.ClanFold = req.Options.ClanFold
		}), reg, nil
	}
	return pipeline.ExploreJob(req.Program, prog, ro, req.Options.Outcomes), reg, nil
}

// run executes one coalesced flight through the cache, which stores the
// result unless the run was cancelled. Under the lock the flight then
// retires and the run's engine counters fold into the service
// aggregate. A panic is recovered here: the flight closes with it, so
// every attached request answers 500, and nothing was stored.
func (s *Service) run(ctx context.Context, f *flight, job pipeline.Job, reg *metrics.Registry) {
	defer func() {
		p := recover()
		s.mu.Lock()
		delete(s.flights, job.Key)
		if p != nil {
			f.panicked = p
			s.stats.RunsPanicked++
		} else {
			if f.res.Cancelled {
				s.stats.RunsCancelled++
			}
			s.fold(reg)
		}
		s.mu.Unlock()
		f.cancel() // release the context; harmless after completion
		close(f.done)
	}()
	if s.runHook != nil {
		s.runHook()
	}
	f.res = s.cache.Run(ctx, job)
}

// fold adds a request's engine counters to the service aggregate. The
// caller holds s.mu.
func (s *Service) fold(reg *metrics.Registry) {
	metrics.EachCounter(func(c metrics.Counter) {
		s.counters[c.String()] += reg.Get(c)
	})
}

// summarize is what the service keeps of a result: the response fields
// common to every request for it, including the terminal outcome set of
// an explore job that asked for it. Keeping the result itself would
// retain its program, invariants and configurations for every cache
// entry.
func summarize(res pipeline.Result) Response {
	if r := res.Abstract; r != nil {
		return Response{
			Analysis:  "abstract",
			Summary:   r.String(),
			States:    r.States,
			Visits:    r.Visits,
			Terminals: r.TerminalCount,
			MayError:  r.MayError,
			Truncated: r.Truncated,
			Cancelled: r.Cancelled,
		}
	}
	r := res.Explore
	return Response{
		Analysis:  "explore",
		Summary:   r.String(),
		States:    r.States,
		Edges:     r.Edges,
		Terminals: len(r.Terminals),
		Errors:    len(r.Errors),
		Truncated: r.Truncated,
		Cancelled: r.Cancelled,
		Outcomes:  res.Outcomes,
	}
}

// render is a request's response from a summary of its job's result.
func render(job pipeline.Job, sum Response) Response {
	sum.ProgramHash = job.ProgramHash
	return sum
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(body)
}
