// Package progen generates random cobegin programs for differential
// testing. The generator is seed-reproducible — the same (seed, Profile)
// pair always yields byte-identical source — and emits only well-formed
// programs: every generated source parses, resolves, and terminates under
// every interleaving (loops count down a dedicated local, recursion is
// bounded by a constant argument), so the concrete explorer, the abstract
// engine, and every reduction can be run against each other without a
// per-program triage step.
//
// The companion shrinker (shrink.go) minimizes a failing program while
// preserving its failure, turning a soak-run divergence into a reproducer
// small enough to read.
//
// Construction invariants (they mirror the resolver's rules, so Generate
// never produces a rejected program):
//
//   - loop counters and recursion parameters are never assigned by
//     generated statements, keeping every loop and recursion bounded;
//   - cobegin arms only assign locals declared inside the arm;
//   - calls appear only as statements or as an entire right-hand side;
//   - value procedures return on every path; void procedures are only
//     called for effect, so falling off the end is legal;
//   - pointers are initialized before use: local pointers are declared as
//     "var p = malloc(k); *p = e;" and pointer globals are seeded in a
//     main prologue. (free and concurrent re-allocation can still dangle
//     them later — runtime errors are part of the semantics both engines
//     model, so such programs stay useful oracle inputs.)
//   - every construct is charged against a dynamic-step budget
//     (Profile.MaxSteps): loops multiply the cost of their body, calls add
//     the callee's worst case, and a recursive helper's cost covers all
//     its activations — so loops, calls, and cobegin cannot compose into a
//     program whose execution (or interleaving space) explodes.
package progen

import (
	"fmt"
	"math/rand"
	"strings"

	"psa/internal/lang"
)

// Profile is the size/shape envelope of generated programs. The zero
// value is not useful; start from DefaultProfile or SmallProfile and
// adjust. All limits are inclusive upper bounds unless noted.
type Profile struct {
	// Globals is the number of integer-valued shared globals (min 1).
	Globals int
	// PtrGlobals is the number of pointer-holding shared globals, seeded
	// by a main prologue (requires Alloc; 0 disables).
	PtrGlobals int
	// ValueFuncs and VoidFuncs are the helper-procedure counts beyond
	// main. Value helpers return on every path; void helpers are called
	// only for effect.
	ValueFuncs int
	VoidFuncs  int
	// MaxBlockStmts bounds the generated statements per block (min 1).
	MaxBlockStmts int
	// MaxDepth bounds if/while nesting inside one function body.
	MaxDepth int
	// MaxArms bounds cobegin arm counts (min 2).
	MaxArms int
	// CobeginBudget bounds the cobegin statements per function body;
	// cobegins inside arms (budget permitting) produce nested cobegin.
	CobeginBudget int
	// MaxLoopIter bounds the countdown-loop trip count (min 1).
	MaxLoopIter int
	// RecDepth bounds the constant passed to recursive calls: a call
	// f(RecDepth) makes RecDepth+1 activations of f.
	RecDepth int
	// MaxExprDepth bounds expression-tree depth.
	MaxExprDepth int
	// MaxSteps is an approximate ceiling on the dynamic statement count of
	// one run. The generator charges each construct against a per-function
	// cost budget (loops multiply, calls add the callee's worst case), so
	// nesting loops, calls, and recursion cannot compose into a program
	// whose single execution — let alone its interleaving space — is
	// intractably large.
	MaxSteps int
	// Feature toggles.
	Alloc         bool // malloc + pointer locals
	Free          bool // free statements (implies dangling-pointer errors)
	Asserts       bool // assert statements (may fail: error terminals)
	Recursion     bool // self-recursive value helpers
	FirstClassFns bool // function-valued locals and indirect calls
}

// DefaultProfile is the soak default: every construct enabled, sized so
// full concrete exploration typically stays in the low thousands of
// configurations.
func DefaultProfile() Profile {
	return Profile{
		Globals:       3,
		PtrGlobals:    1,
		ValueFuncs:    2,
		VoidFuncs:     1,
		MaxBlockStmts: 4,
		MaxDepth:      2,
		MaxArms:       3,
		CobeginBudget: 2,
		MaxLoopIter:   3,
		RecDepth:      2,
		MaxExprDepth:  3,
		MaxSteps:      400,
		Alloc:         true,
		Free:          true,
		Asserts:       true,
		Recursion:     true,
		FirstClassFns: true,
	}
}

// SmallProfile generates tiny programs (quick smoke runs and shrinker
// tests).
func SmallProfile() Profile {
	p := DefaultProfile()
	p.Globals = 2
	p.PtrGlobals = 0
	p.ValueFuncs = 1
	p.VoidFuncs = 0
	p.MaxBlockStmts = 3
	p.MaxDepth = 1
	p.MaxArms = 2
	p.CobeginBudget = 1
	p.MaxLoopIter = 2
	p.RecDepth = 1
	p.MaxExprDepth = 2
	p.MaxSteps = 120
	p.Alloc = false
	p.Free = false
	p.FirstClassFns = false
	return p
}

// CorpusProfile is SmallProfile with allocation and a second cobegin per
// body: the envelope of the engines' fixed-seed differential test
// corpora. It keeps loops, nested cobegin, and heap traffic while full
// concrete exploration stays within a few thousand configurations per
// program.
func CorpusProfile() Profile {
	p := SmallProfile()
	p.Alloc = true
	p.CobeginBudget = 2
	return p
}

// BigProfile stretches every knob (nightly soak): deeper cobegin nesting,
// recursion at the activation limit, more allocation sites.
func BigProfile() Profile {
	p := DefaultProfile()
	p.Globals = 4
	p.PtrGlobals = 2
	p.ValueFuncs = 3
	p.VoidFuncs = 2
	p.MaxBlockStmts = 5
	p.MaxDepth = 3
	p.MaxArms = 4
	p.CobeginBudget = 3
	p.MaxLoopIter = 4
	p.RecDepth = 3
	p.MaxExprDepth = 4
	p.MaxSteps = 900
	return p
}

// normalize clamps a profile to its documented minima so Generate cannot
// be driven out of the grammar.
func (p Profile) normalize() Profile {
	clamp := func(v *int, min int) {
		if *v < min {
			*v = min
		}
	}
	clamp(&p.Globals, 1)
	clamp(&p.PtrGlobals, 0)
	clamp(&p.ValueFuncs, 0)
	clamp(&p.VoidFuncs, 0)
	clamp(&p.MaxBlockStmts, 1)
	clamp(&p.MaxDepth, 0)
	clamp(&p.MaxArms, 2)
	clamp(&p.CobeginBudget, 0)
	clamp(&p.MaxLoopIter, 1)
	clamp(&p.RecDepth, 0)
	clamp(&p.MaxExprDepth, 1)
	clamp(&p.MaxSteps, 60)
	if !p.Alloc {
		p.PtrGlobals = 0
		p.Free = false
	}
	return p
}

// Name returns the profile's registry name if it matches a stock profile
// ("" otherwise); the soak CLI and reports use it.
func (p Profile) Name() string {
	switch p {
	case DefaultProfile():
		return "default"
	case SmallProfile():
		return "small"
	case BigProfile():
		return "big"
	}
	return ""
}

// ProfileByName resolves a stock profile name.
func ProfileByName(name string) (Profile, bool) {
	switch name {
	case "default":
		return DefaultProfile(), true
	case "small":
		return SmallProfile(), true
	case "big":
		return BigProfile(), true
	}
	return Profile{}, false
}

// Generate produces the program for (seed, profile): deterministic,
// parsed, and resolved. The error return is defensive — a non-nil error
// means the generator itself emitted an invalid program, which the
// property tests pin as impossible.
func Generate(seed int64, profile Profile) (*lang.Program, string, error) {
	src := GenerateSource(seed, profile)
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, src, fmt.Errorf("progen: seed %d generated invalid program: %w", seed, err)
	}
	return prog, src, nil
}

// GenerateSource produces just the source text for (seed, profile).
func GenerateSource(seed int64, profile Profile) string {
	g := &gen{
		r: rand.New(rand.NewSource(seed)),
		p: profile.normalize(),
	}
	return g.program()
}

// fnSig describes a generated helper procedure.
type fnSig struct {
	name      string
	params    int
	value     bool // returns a value on every path
	recursive bool // param 0 is the recursion bound
	cost      int  // worst-case dynamic steps of one call, activations included
}

// varKind classifies generated locals by the value they are known to hold.
type varKind uint8

const (
	vInt varKind = iota
	vPtr
	vFn
)

// local is one in-scope binding during generation.
type local struct {
	name string
	kind varKind
	arm  int   // arm context id at declaration (0 = function top level)
	ro   bool  // read-only: loop counters and recursion bounds
	fn   fnSig // callee signature for vFn
}

type gen struct {
	r *rand.Rand
	p Profile

	intGlobals []string
	ptrGlobals []string
	funcs      []fnSig // generated helpers, callable by later functions

	seq int // fresh-name counter (also keeps labels program-unique)

	b      strings.Builder
	indent int
}

// ctx is the per-function generation context.
type ctx struct {
	locals   []local
	armSeq   int // arm context id allocator (per function)
	armID    int // current arm context (0 = top level)
	cobegins int // remaining cobegin budget in this function
	depth    int // remaining if/while nesting budget
	callable []fnSig

	cost   int // accumulated worst-case dynamic steps of this activation
	mult   int // loop-nesting multiplier applied to new statements (≥ 1)
	budget int // cost ceiling for this function body
}

// charge records n dynamic steps at the current loop multiplier.
func (c *ctx) charge(n int) { c.cost += c.mult * n }

// remaining reports how many multiplier-units of cost budget are left:
// a statement costing up to remaining() more units still fits.
func (c *ctx) remaining() int {
	r := (c.budget - c.cost) / c.mult
	if r < 0 {
		return 0
	}
	return r
}

func (g *gen) fresh(prefix string) string {
	g.seq++
	return fmt.Sprintf("%s%d", prefix, g.seq)
}

func (g *gen) line(format string, args ...any) {
	g.b.WriteString(strings.Repeat("  ", g.indent))
	fmt.Fprintf(&g.b, format, args...)
	g.b.WriteByte('\n')
}

// pct reports true with probability n/100.
func (g *gen) pct(n int) bool { return g.r.Intn(100) < n }

func (g *gen) program() string {
	for i := 0; i < g.p.Globals; i++ {
		name := g.fresh("g")
		g.intGlobals = append(g.intGlobals, name)
		if g.pct(40) {
			g.line("var %s = %d;", name, g.r.Intn(5))
		} else {
			g.line("var %s;", name)
		}
	}
	for i := 0; i < g.p.PtrGlobals; i++ {
		name := g.fresh("p")
		g.ptrGlobals = append(g.ptrGlobals, name)
		g.line("var %s;", name)
	}
	g.line("")

	for i := 0; i < g.p.ValueFuncs; i++ {
		rec := g.p.Recursion && (i == 0 || g.pct(50))
		g.valueFunc(rec)
	}
	for i := 0; i < g.p.VoidFuncs; i++ {
		g.voidFunc()
	}
	g.mainFunc()
	return g.b.String()
}

// valueFunc emits a helper that returns on every path. Recursive helpers
// follow the bounded template
//
//	func f(n, ...) {
//	  if n > 0 { var t = f(n - 1, ...); ...; return t + e; }
//	  ...
//	  return e;
//	}
//
// so a call f(k) makes exactly k+1 activations.
func (g *gen) valueFunc(recursive bool) {
	sig := fnSig{name: g.fresh("vf"), params: 1 + g.r.Intn(2), value: true, recursive: recursive}
	c := &ctx{depth: g.p.MaxDepth, callable: append([]fnSig(nil), g.funcs...), mult: 1}
	// Helpers get a slice of the program's step budget; a recursive helper's
	// body budget is divided by its activation count so the whole recursion
	// tower still fits the slice. Recursion happens only through the bounded
	// template call — the helper is deliberately NOT in its own callable
	// set, since a generated self-call would pass a fresh constant bound and
	// recurse forever.
	c.budget = g.p.MaxSteps / 6
	if recursive {
		c.budget = g.p.MaxSteps / (6 * (g.p.RecDepth + 1))
	}
	if c.budget < 8 {
		c.budget = 8
	}
	params := make([]string, sig.params)
	for i := range params {
		params[i] = g.fresh("a")
		c.locals = append(c.locals, local{name: params[i], kind: vInt, ro: recursive && i == 0})
	}
	g.line("func %s(%s) {", sig.name, strings.Join(params, ", "))
	g.indent++
	if recursive {
		n := params[0]
		g.line("if %s > 0 {", n)
		g.indent++
		save := len(c.locals)
		t := g.fresh("t")
		args := []string{n + " - 1"}
		for i := 1; i < sig.params; i++ {
			args = append(args, g.intExpr(c, 1))
		}
		g.line("var %s = %s(%s);", t, sig.name, strings.Join(args, ", "))
		c.charge(2) // branch test + the recursive call statement itself
		c.locals = append(c.locals, local{name: t, kind: vInt})
		g.stmts(c, g.r.Intn(2))
		g.line("return %s + %s;", t, g.intExpr(c, 1))
		c.charge(1)
		c.locals = c.locals[:save]
		g.indent--
		g.line("}")
	}
	g.stmts(c, g.r.Intn(2))
	g.line("return %s;", g.intExpr(c, g.p.MaxExprDepth-1))
	c.charge(1)
	g.indent--
	g.line("}")
	g.line("")
	sig.cost = c.cost
	if recursive {
		// One call runs up to RecDepth+1 activations of the body.
		sig.cost = (c.cost + 1) * (g.p.RecDepth + 1)
	}
	g.funcs = append(g.funcs, sig)
}

// voidFunc emits a helper called only for effect; it may itself contain a
// cobegin (budget permitting), so calls from arms create nested
// parallelism.
func (g *gen) voidFunc() {
	sig := fnSig{name: g.fresh("hf"), params: g.r.Intn(2)}
	c := &ctx{
		depth:    g.p.MaxDepth,
		cobegins: maxInt(0, g.p.CobeginBudget-1),
		callable: append([]fnSig(nil), g.funcs...),
		mult:     1,
		budget:   maxInt(8, g.p.MaxSteps/4),
	}
	params := make([]string, sig.params)
	for i := range params {
		params[i] = g.fresh("a")
		c.locals = append(c.locals, local{name: params[i], kind: vInt})
	}
	g.line("func %s(%s) {", sig.name, strings.Join(params, ", "))
	g.indent++
	g.stmts(c, 1+g.r.Intn(g.p.MaxBlockStmts))
	g.indent--
	g.line("}")
	g.line("")
	sig.cost = c.cost
	g.funcs = append(g.funcs, sig)
}

func (g *gen) mainFunc() {
	c := &ctx{
		depth:    g.p.MaxDepth,
		cobegins: g.p.CobeginBudget,
		callable: append([]fnSig(nil), g.funcs...),
		mult:     1,
		budget:   g.p.MaxSteps,
	}
	g.line("func main() {")
	g.indent++
	// Prologue: every pointer global is seeded with an initialized cell
	// before any concurrency, so later derefs race on values, not on
	// definedness.
	for _, pg := range g.ptrGlobals {
		g.line("%s = malloc(%d);", pg, 1+g.r.Intn(2))
		g.line("*%s = %d;", pg, g.r.Intn(5))
		c.charge(2)
	}
	// Reserve one cobegin from the budget: the spine of every generated
	// program is at least one cobegin, and the reservation keeps the
	// per-function total within CobeginBudget.
	c.cobegins--
	pre := g.r.Intn(g.p.MaxBlockStmts)
	g.stmts(c, pre)
	c.cobegins++
	if c.cobegins <= 0 {
		c.cobegins = 1
	}
	g.cobeginStmt(c)
	g.stmts(c, g.r.Intn(g.p.MaxBlockStmts))
	g.indent--
	g.line("}")
}

// stmts emits n statements into the current block.
func (g *gen) stmts(c *ctx, n int) {
	for i := 0; i < n; i++ {
		g.stmt(c)
	}
}

// label returns an occasional unique statement label prefix.
func (g *gen) label() string {
	if g.pct(12) {
		return g.fresh("L") + ": "
	}
	return ""
}

// stmt emits one statement, chosen from the constructs available in this
// context with fixed weights.
func (g *gen) stmt(c *ctx) {
	type choice struct {
		weight int
		emit   func()
	}
	var choices []choice
	add := func(w int, f func()) { choices = append(choices, choice{w, f}) }

	// Expensive constructs are offered only while the cost budget has room
	// for their worst case at the current loop multiplier.
	rem := c.remaining()

	add(5, func() { g.assignGlobal(c) })
	add(2, func() { g.declInt(c) })
	add(1, func() { g.line("%sskip;", g.label()); c.charge(1) })
	if g.assignableInt(c) != "" {
		add(3, func() { g.assignLocal(c) })
	}
	if c.depth > 0 {
		if rem >= 2*(g.p.MaxBlockStmts+1) {
			add(2, func() { g.ifStmt(c) })
		}
		if rem >= g.p.MaxLoopIter*(g.p.MaxBlockStmts+2)+1 {
			add(2, func() { g.whileStmt(c) })
		}
	}
	if c.cobegins > 0 && g.p.MaxArms >= 2 && rem >= g.p.MaxArms*(g.p.MaxBlockStmts+1) {
		add(2, func() { g.cobeginStmt(c) })
	}
	if len(g.affordable(c)) > 0 {
		add(2, func() { g.callStmt(c) })
		if g.p.FirstClassFns {
			add(1, func() { g.fnLocal(c) })
		}
	}
	if g.p.Alloc {
		add(2, func() { g.declPtr(c) })
		if g.ptrVar(c) != "" {
			add(2, func() { g.storePtr(c) })
			add(1, func() { g.readPtr(c) })
		}
		if len(g.ptrGlobals) > 0 {
			add(1, func() { g.addrOf(c) })
		}
		if g.p.Free && g.freeablePtr(c) != "" {
			add(1, func() { g.freeStmt(c) })
		}
	}
	if g.p.Asserts {
		add(1, func() { g.line("%sassert %s;", g.label(), g.boolExpr(c, 1)); c.charge(1) })
	}

	total := 0
	for _, ch := range choices {
		total += ch.weight
	}
	n := g.r.Intn(total)
	for _, ch := range choices {
		if n < ch.weight {
			ch.emit()
			return
		}
		n -= ch.weight
	}
}

// affordable returns the callable helpers whose worst-case cost still
// fits the remaining budget at the current multiplier.
func (g *gen) affordable(c *ctx) []fnSig {
	rem := c.remaining()
	var out []fnSig
	for _, f := range c.callable {
		if 1+f.cost <= rem {
			out = append(out, f)
		}
	}
	return out
}

// assignableInt returns a random assignable integer local ("" if none):
// declared in the current arm context and not read-only.
func (g *gen) assignableInt(c *ctx) string {
	var cands []string
	for _, v := range c.locals {
		if v.kind == vInt && v.arm == c.armID && !v.ro {
			cands = append(cands, v.name)
		}
	}
	if len(cands) == 0 {
		return ""
	}
	return cands[g.r.Intn(len(cands))]
}

// ptrVar returns a random readable pointer variable ("" if none): any
// pointer local in scope or any pointer global.
func (g *gen) ptrVar(c *ctx) string {
	var cands []string
	for _, v := range c.locals {
		if v.kind == vPtr {
			cands = append(cands, v.name)
		}
	}
	cands = append(cands, g.ptrGlobals...)
	if len(cands) == 0 {
		return ""
	}
	return cands[g.r.Intn(len(cands))]
}

// freeablePtr returns a random pointer local that is guaranteed
// heap-directed ("" if none). Pointer globals are excluded: &global can
// be stored into them, and freeing a global address is a static mistake
// rather than an interesting runtime interleaving.
func (g *gen) freeablePtr(c *ctx) string {
	var cands []string
	for _, v := range c.locals {
		if v.kind == vPtr {
			cands = append(cands, v.name)
		}
	}
	if len(cands) == 0 {
		return ""
	}
	return cands[g.r.Intn(len(cands))]
}

func (g *gen) assignGlobal(c *ctx) {
	tgt := g.intGlobals[g.r.Intn(len(g.intGlobals))]
	c.charge(1)
	if g.pct(15) {
		if call, ok := g.callExpr(c); ok {
			g.line("%s%s = %s;", g.label(), tgt, call)
			return
		}
	}
	g.line("%s%s = %s;", g.label(), tgt, g.intExpr(c, g.p.MaxExprDepth))
}

func (g *gen) assignLocal(c *ctx) {
	tgt := g.assignableInt(c)
	c.charge(1)
	if tgt == "" {
		g.line("skip;")
		return
	}
	if g.pct(15) {
		if call, ok := g.callExpr(c); ok {
			g.line("%s%s = %s;", g.label(), tgt, call)
			return
		}
	}
	g.line("%s%s = %s;", g.label(), tgt, g.intExpr(c, g.p.MaxExprDepth))
}

func (g *gen) declInt(c *ctx) {
	name := g.fresh("x")
	c.charge(1)
	init := g.intExpr(c, g.p.MaxExprDepth-1)
	if g.pct(20) {
		if call, ok := g.callExpr(c); ok {
			init = call
		}
	}
	g.line("var %s = %s;", name, init)
	c.locals = append(c.locals, local{name: name, kind: vInt, arm: c.armID})
}

// declPtr declares a heap pointer and initializes its first cell, so
// reads through it are defined unless a free or re-malloc races in.
func (g *gen) declPtr(c *ctx) {
	name := g.fresh("q")
	c.charge(2)
	g.line("var %s = malloc(%d);", name, 1+g.r.Intn(2))
	g.line("*%s = %s;", name, g.intExpr(c, 1))
	c.locals = append(c.locals, local{name: name, kind: vPtr, arm: c.armID})
}

func (g *gen) storePtr(c *ctx) {
	p := g.ptrVar(c)
	c.charge(1)
	g.line("%s*%s = %s;", g.label(), p, g.intExpr(c, g.p.MaxExprDepth-1))
}

func (g *gen) readPtr(c *ctx) {
	p := g.ptrVar(c)
	c.charge(1)
	if tgt := g.assignableInt(c); tgt != "" && g.pct(50) {
		g.line("%s = *%s;", tgt, p)
		return
	}
	g.line("%s = *%s;", g.intGlobals[g.r.Intn(len(g.intGlobals))], p)
}

func (g *gen) addrOf(c *ctx) {
	pg := g.ptrGlobals[g.r.Intn(len(g.ptrGlobals))]
	c.charge(1)
	g.line("%s = &%s;", pg, g.intGlobals[g.r.Intn(len(g.intGlobals))])
}

func (g *gen) freeStmt(c *ctx) {
	c.charge(1)
	g.line("%sfree(%s);", g.label(), g.freeablePtr(c))
}

// fnLocal binds a helper to a function-valued local and calls through it.
func (g *gen) fnLocal(c *ctx) {
	afford := g.affordable(c)
	if len(afford) == 0 {
		g.line("skip;")
		c.charge(1)
		return
	}
	callee := afford[g.r.Intn(len(afford))]
	name := g.fresh("h")
	c.charge(2 + callee.cost)
	g.line("var %s = %s;", name, callee.name)
	c.locals = append(c.locals, local{name: name, kind: vFn, arm: c.armID, fn: callee})
	g.line("%s(%s);", name, g.callArgs(c, callee))
}

// callStmt calls a helper for effect (result dropped).
func (g *gen) callStmt(c *ctx) {
	afford := g.affordable(c)
	if len(afford) == 0 {
		g.line("skip;")
		c.charge(1)
		return
	}
	callee := afford[g.r.Intn(len(afford))]
	c.charge(1 + callee.cost)
	g.line("%s%s(%s);", g.label(), callee.name, g.callArgs(c, callee))
}

// callExpr returns a value-helper call usable as an entire right-hand
// side (ok=false when no value helper fits the remaining cost budget).
func (g *gen) callExpr(c *ctx) (string, bool) {
	var vals []fnSig
	for _, f := range g.affordable(c) {
		if f.value {
			vals = append(vals, f)
		}
	}
	if len(vals) == 0 {
		return "", false
	}
	callee := vals[g.r.Intn(len(vals))]
	c.charge(1 + callee.cost)
	return fmt.Sprintf("%s(%s)", callee.name, g.callArgs(c, callee)), true
}

// callArgs builds an argument list: recursion bounds get a small constant,
// everything else a shallow integer expression.
func (g *gen) callArgs(c *ctx, callee fnSig) string {
	args := make([]string, callee.params)
	for i := range args {
		if callee.recursive && i == 0 {
			args[i] = fmt.Sprintf("%d", g.r.Intn(g.p.RecDepth+1))
		} else {
			args[i] = g.intExpr(c, 1)
		}
	}
	return strings.Join(args, ", ")
}

func (g *gen) ifStmt(c *ctx) {
	c.charge(1)
	g.line("%sif %s {", g.label(), g.boolExpr(c, 2))
	g.indent++
	c.depth--
	save := len(c.locals)
	g.stmts(c, 1+g.r.Intn(g.p.MaxBlockStmts))
	c.locals = c.locals[:save]
	g.indent--
	if g.pct(40) {
		g.line("} else {")
		g.indent++
		save = len(c.locals)
		g.stmts(c, 1+g.r.Intn(g.p.MaxBlockStmts))
		c.locals = c.locals[:save]
		g.indent--
	}
	c.depth++
	g.line("}")
}

// whileStmt emits the bounded countdown template: the counter is a fresh
// read-only local, so the loop terminates under every interleaving.
func (g *gen) whileStmt(c *ctx) {
	i := g.fresh("i")
	bound := 1 + g.r.Intn(g.p.MaxLoopIter)
	c.charge(1)
	g.line("var %s = %d;", i, bound)
	c.locals = append(c.locals, local{name: i, kind: vInt, arm: c.armID, ro: true})
	g.line("%swhile %s > 0 {", g.label(), i)
	g.indent++
	c.depth--
	// Body statements run up to bound times: scale their cost.
	savedMult := c.mult
	c.mult *= bound
	c.charge(2) // per-iteration loop-header test + counter decrement
	save := len(c.locals)
	g.stmts(c, 1+g.r.Intn(maxInt(1, g.p.MaxBlockStmts-1)))
	c.locals = c.locals[:save]
	c.mult = savedMult
	g.line("%s = %s - 1;", i, i)
	c.depth++
	g.indent--
	g.line("}")
}

// cobeginStmt forks 2..MaxArms arms. Locals declared outside become
// read-only inside each arm (the resolver's rule); each arm gets a fresh
// arm context so its own declarations are assignable again.
func (g *gen) cobeginStmt(c *ctx) {
	c.cobegins--
	c.charge(2) // fork + join
	arms := 2 + g.r.Intn(g.p.MaxArms-1)
	g.b.WriteString(strings.Repeat("  ", g.indent))
	fmt.Fprintf(&g.b, "%scobegin {\n", g.label())
	g.indent++
	savedArm := c.armID
	for a := 0; a < arms; a++ {
		if a > 0 {
			g.indent--
			g.line("} || {")
			g.indent++
		}
		c.armSeq++
		c.armID = c.armSeq
		save := len(c.locals)
		g.stmts(c, 1+g.r.Intn(g.p.MaxBlockStmts))
		c.locals = c.locals[:save]
	}
	c.armID = savedArm
	g.indent--
	g.line("} coend")
}

// intExpr emits an integer-valued expression of at most depth d. Division
// and modulus always take a nonzero literal divisor, so the only runtime
// faults generated programs can hit are races the semantics is supposed
// to model (dangling pointers, failed asserts), never trivial div-by-zero.
func (g *gen) intExpr(c *ctx, d int) string {
	if d <= 0 || g.pct(40) {
		return g.intAtom(c)
	}
	op := [...]string{"+", "-", "*", "/", "%"}[g.r.Intn(5)]
	if op == "/" || op == "%" {
		return fmt.Sprintf("(%s %s %d)", g.intExpr(c, d-1), op, 1+g.r.Intn(4))
	}
	return fmt.Sprintf("(%s %s %s)", g.intExpr(c, d-1), op, g.intExpr(c, d-1))
}

func (g *gen) intAtom(c *ctx) string {
	var cands []string
	for _, v := range c.locals {
		if v.kind == vInt {
			cands = append(cands, v.name)
		}
	}
	cands = append(cands, g.intGlobals...)
	switch {
	case g.pct(35) || len(cands) == 0:
		n := g.r.Intn(10)
		if g.pct(15) {
			return fmt.Sprintf("(-%d)", n)
		}
		return fmt.Sprintf("%d", n)
	case g.p.Alloc && g.pct(20):
		if p := g.ptrVar(c); p != "" {
			return "*" + p
		}
		fallthrough
	default:
		return cands[g.r.Intn(len(cands))]
	}
}

// boolExpr emits a condition of at most depth d.
func (g *gen) boolExpr(c *ctx, d int) string {
	if d <= 0 {
		return g.cmpExpr(c)
	}
	switch g.r.Intn(6) {
	case 0:
		return fmt.Sprintf("(%s && %s)", g.boolExpr(c, d-1), g.boolExpr(c, d-1))
	case 1:
		return fmt.Sprintf("(%s || %s)", g.boolExpr(c, d-1), g.boolExpr(c, d-1))
	case 2:
		return "!" + g.cmpExpr(c)
	default:
		return g.cmpExpr(c)
	}
}

func (g *gen) cmpExpr(c *ctx) string {
	op := [...]string{"==", "!=", "<", "<=", ">", ">="}[g.r.Intn(6)]
	return fmt.Sprintf("%s %s %s", g.intExpr(c, 1), op, g.intExpr(c, 1))
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
