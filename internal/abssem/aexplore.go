package abssem

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"psa/internal/absdom"
	"psa/internal/lang"
	"psa/internal/metrics"
	"psa/internal/sched"
	"psa/internal/sem"
)

// Options configures an abstract interpretation.
//
// The integer limits follow one convention: the zero value selects the
// documented default (so Options{} works), and a NEGATIVE value is the
// explicit request for the boundary value 0, which zero-value defaulting
// would otherwise make unreachable. Package explore's Options follow the
// same audit: there, too, 0 means "default" everywhere, and the only
// meaningful boundary (Workers) already has explicit negative semantics.
type Options struct {
	// Domain is the numeric abstract domain (default absdom.ConstDomain).
	Domain absdom.NumDomain
	// KBirth is the k-limit for birthdate abstraction (default 2).
	// Negative requests k = 0: procedure strings carry no birthdate
	// context at all, so every allocation site folds into one summary.
	KBirth int
	// RecLimit bounds simultaneous activations of one function; deeper
	// recursion is havocked through its static effect summary (default 3).
	// Negative requests the limit 0: every call is havocked immediately.
	RecLimit int
	// ClanFold merges cobegin arms with identical bodies into one
	// abstract process (§6.2, McDowell's clans).
	ClanFold bool
	// MaxStates bounds the number of abstract configurations (default
	// 1<<18 for zero or negative values; there is no meaningful bound
	// below 1). A truncated run still reports invariants, terminals, and
	// footprints for the prefix it explored — see Result.Truncated.
	MaxStates int
	// WidenAfter is the number of joins at one control point before
	// widening kicks in (default 4). Negative requests 0: widening on the
	// first rejoin, the fastest-converging (coarsest) iteration strategy.
	WidenAfter int
	// Workers is the number of goroutines expanding worklist entries
	// (see aparallel.go): 0 or 1 runs the worklist inline on the
	// caller's goroutine, a negative count uses GOMAXPROCS. Every Result
	// field and every deterministic metrics counter is bit-identical at
	// any worker count: joins, widening decisions, dedup, and queue
	// order stay in the serial merge.
	Workers int
	// Pool, when non-nil, is the shared scheduler pool (internal/sched)
	// the parallel fixpoint runs on: its worker count governs
	// scheduling, the caller keeps ownership (Analyze never closes it),
	// and consecutive Explore/Analyze calls may reuse it to amortize
	// worker startup. Nil makes each multi-worker run create a private
	// pool sized by Workers. Ignored when Workers is 0 or 1.
	Pool *sched.Pool
	// CollectFootprints records per-statement abstract access footprints
	// (Result.FootprintOf / Conflicts) — the §5.2 dependences computed
	// from the abstract semantics with no concrete exploration.
	CollectFootprints bool
	// Metrics, when non-nil, receives worklist/visit counts, join and
	// widening events, and phase wall-clock during the fixpoint
	// iteration. Nil disables instrumentation.
	Metrics *metrics.Registry
}

// fill normalizes the limits: 0 → default, negative → 0 (the explicit
// boundary request the zero-value defaulting would otherwise swallow).
func (o *Options) fill() {
	norm := func(v *int, def int) {
		switch {
		case *v == 0:
			*v = def
		case *v < 0:
			*v = 0
		}
	}
	if o.Domain == nil {
		o.Domain = absdom.ConstDomain{}
	}
	norm(&o.KBirth, 2)
	norm(&o.RecLimit, 3)
	norm(&o.WidenAfter, 4)
	if o.MaxStates <= 0 {
		o.MaxStates = 1 << 18
	}
}

// Normalized returns the options with every limit resolved to the value
// Analyze will actually run with: 0 becomes the documented default,
// negative becomes the boundary 0, and a nil Domain becomes ConstDomain.
// Two Options values that normalize equal configure identical analyses
// (up to the execution-only fields Workers, Pool, and Metrics,
// which never change results) — the property the pipeline layer's
// options-keyed result cache relies on.
func (o Options) Normalized() Options {
	o.fill()
	return o
}

// Result summarizes an abstract interpretation.
type Result struct {
	// States is the number of distinct abstract configurations (control
	// points after Taylor folding; the quantity of paper Figure 3).
	States int
	// Visits counts worklist entries processed (cost proxy).
	Visits int
	// Terminal is the join of the stores of all terminal abstract
	// configurations (nil when none was reached).
	Terminal *absdom.Store
	// TerminalCount is the number of terminal abstract configurations.
	TerminalCount int
	// MayError reports that some folded execution may fault.
	MayError bool
	// Truncated reports that MaxStates was hit. The invariants, terminal
	// join, and footprints still cover the explored prefix — they are
	// sound only for the configurations actually reached, not for the
	// program (the fixpoint was cut short), so clients must treat them
	// as partial.
	Truncated bool
	// Cancelled reports that the run's context was cancelled before the
	// fixpoint converged (see AnalyzeContext). The same coherence
	// contract as Truncated holds — collection still runs, so
	// invariants, the terminal join, and footprints cover the explored
	// prefix — but the cut point depends on timing, so cancelled results
	// must never enter options-keyed caches.
	Cancelled bool

	prog *lang.Program
	foot *footRec
	// at maps a statement to the join of the stores of every abstract
	// configuration in which some process is about to execute it: the
	// program-point invariant clients (e.g. the optimization oracle of
	// package apps) query.
	at map[lang.NodeID]*absdom.Store
}

// InvariantAt returns the abstract store holding whenever the statement
// with the given ID is about to execute (nil if never reached).
func (r *Result) InvariantAt(id lang.NodeID) *absdom.Store { return r.at[id] }

// GlobalAt returns the abstract value of the named global at the labeled
// statement (ok=false when the label is unknown or unreached).
func (r *Result) GlobalAt(label, global string) (absdom.Value, bool) {
	s := r.prog.StmtByLabel(label)
	g := r.prog.Global(global)
	if s == nil || g == nil {
		return absdom.Value{}, false
	}
	st := r.at[s.NodeID()]
	if st == nil {
		return absdom.Value{}, false
	}
	return st.Global(g.Index), true
}

// Unreachable returns every statement the abstract interpretation never
// reached, in source order: dead branches of decided conditionals, code
// after constant-false loops, bodies of uncalled procedures. Because the
// abstraction over-approximates, "unreached abstractly" implies
// "unreachable concretely" — a sound dead-code report.
func (r *Result) Unreachable() []lang.Stmt {
	var out []lang.Stmt
	for _, f := range r.prog.Funcs {
		lang.WalkStmts(f.Body, func(s lang.Stmt) {
			if _, reached := r.at[s.NodeID()]; !reached {
				out = append(out, s)
			}
		})
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := out[i].NodePos(), out[j].NodePos()
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Col < pj.Col
	})
	return out
}

// GlobalInvariant returns the abstract value of the named global at
// program termination (Bot if the program never terminates abstractly).
func (r *Result) GlobalInvariant(name string) (absdom.Value, bool) {
	g := r.prog.Global(name)
	if g == nil || r.Terminal == nil {
		return absdom.Value{}, false
	}
	return r.Terminal.Global(g.Index), true
}

// aState is the stored value state at one control point.
//
// Ownership rule: a stored *AProc (and every frame and pending write it
// holds) is never mutated in place. A new state stores the successor
// configuration itself, which shares its unchanged processes with the
// state it was stepped from, and joinInto copies a process with
// cloneProcIn before it writes to it. Only the AConfig shell — its Procs
// slice, Store and MayError — belongs to the state alone, and while the
// state has a queued task even that is replaced rather than written
// (see analyzeParallel).
type aState struct {
	// cfg is the state's current configuration: loaded by expansions
	// on any goroutine, stored only by the merge.
	cfg    atomic.Pointer[AConfig]
	visits int
	queued bool
}

// newStepCtx builds the per-run context of the abstract semantics.
func newStepCtx(prog *lang.Program, opts Options) *stepCtx {
	sc := &stepCtx{
		prog:    prog,
		dom:     opts.Domain,
		sums:    sem.NewSummaries(prog),
		sharing: lang.AnalyzeSharing(prog),
		kBirth:  opts.KBirth,
		recLim:  opts.RecLimit,
		clan:    opts.ClanFold,
	}
	if opts.CollectFootprints {
		sc.foot = &footRec{m: map[lang.NodeID]map[AbsAccess]bool{}}
	}
	return sc
}

// Analyze runs the abstract interpretation of prog to a fixpoint.
func Analyze(prog *lang.Program, opts Options) *Result {
	return AnalyzeContext(context.Background(), prog, opts)
}

// AnalyzeContext is Analyze under a context: cancelling ctx stops the
// fixpoint iteration at the next worklist boundary and returns a
// partial result with Result.Cancelled set. The cut takes the exact
// shape of the MaxStates truncation cut — collection still runs, so the
// invariants, terminal join, and footprints cover the explored prefix,
// and in-flight parallel expansions drain before AnalyzeContext returns
// (no callback or worker touches the result afterwards).
func AnalyzeContext(ctx context.Context, prog *lang.Program, opts Options) *Result {
	if ctx == nil {
		ctx = context.Background()
	}
	opts.fill()
	return analyzeParallel(ctx, prog, opts)
}

// collect builds the client-facing views over the explored states: the
// per-program-point invariants, the terminal join, and the state count.
// It runs after the fixpoint loop on complete AND truncated runs, and it
// iterates states in sorted signature order so every run produces the
// same joins in the same order (lattice joins are order-insensitive in
// value, but identical order makes the results bit-identical too).
//
// Stores entering res.at and res.Terminal are cloned on first
// assignment, so the result owns them: later states join into them in
// place (Store.JoinInPlace, which skips every entry already below the
// accumulator), and no returned store aliases the state table's live
// configuration stores.
func (res *Result) collect(states map[ctrlSig]*aState, m *metrics.Registry) {
	res.States = len(states)
	m.Add(metrics.AbsStates, int64(len(states)))
	sigs := make([]string, 0, len(states))
	for sig := range states {
		sigs = append(sigs, string(sig))
	}
	sort.Strings(sigs)
	res.at = map[lang.NodeID]*absdom.Store{}
	for _, sig := range sigs {
		cfg := states[ctrlSig(sig)].cfg.Load()
		for _, p := range cfg.Procs {
			if p.Status != Running {
				continue
			}
			if s := nextStmt(p); s != nil {
				if cur, ok := res.at[s.NodeID()]; ok {
					cur.JoinInPlace(cfg.Store)
				} else {
					res.at[s.NodeID()] = cfg.Store.Clone()
				}
			}
		}
		if len(cfg.enabled()) == 0 {
			res.TerminalCount++
			if res.Terminal == nil {
				res.Terminal = cfg.Store.Clone()
			} else {
				res.Terminal.JoinInPlace(cfg.Store)
			}
			if cfg.MayError {
				res.MayError = true
			}
		}
	}
}

// initialConfig builds the abstract initial configuration.
func initialConfig(prog *lang.Program, d absdom.NumDomain) *AConfig {
	main := prog.Func("main")
	info := prog.ResolvedInfo().Funcs[main]
	locals := make([]absdom.Value, info.FrameSize)
	for i := range locals {
		locals[i] = absdom.OfUndef(d)
	}
	inits := make([]int64, len(prog.Globals))
	for i, g := range prog.Globals {
		inits[i] = g.Init
	}
	root := &AProc{
		Path:   "0",
		Status: Running,
		Frames: []*AFrame{{
			Fn:     main,
			Locals: locals,
			Blocks: []blockPos{{block: main.Body, idx: 0}},
		}},
	}
	return &AConfig{
		Procs: []*AProc{root},
		Store: absdom.NewStore(d, inits),
	}
}

// String renders the result.
func (r *Result) String() string {
	return fmt.Sprintf("abstract states=%d visits=%d terminals=%d mayError=%v truncated=%v",
		r.States, r.Visits, r.TerminalCount, r.MayError, r.Truncated)
}
