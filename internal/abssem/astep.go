package abssem

import (
	"slices"
	"strconv"

	"psa/internal/absdom"
	"psa/internal/lang"
	"psa/internal/pstring"
	"psa/internal/sem"
)

// stepCtx carries the per-exploration context of the abstract semantics.
type stepCtx struct {
	prog    *lang.Program
	dom     absdom.NumDomain
	sums    *sem.Summaries
	sharing *lang.Sharing
	kBirth  int
	recLim  int
	clan    bool
	foot    *footRec // non-nil when collecting abstract footprints
	// globalTs[i] is the target set {global i}, shared by every dest
	// that names global i (target sets are never written in place).
	globalTs [][]absdom.Target
	// onVerdict, when set, sees every successor expansion tests against
	// a stored state, with the configuration it was tested against and
	// the verdict. Tests use it; the engine leaves it nil.
	onVerdict func(cfg, succ *AConfig, below bool)
}

// step computes all abstract successors of firing process pi in c. A
// statement may have several successors (both branches of an unresolved
// conditional, several callees of an indirect call). Abstract faults set
// MayError on a successor-less branch, which the explorer records.
func (sc *stepCtx) step(c *AConfig, pi int) []*AConfig {
	var out []*AConfig
	sc.run(nil, c, pi, &out)
	return out
}

// stepIn is step with the written parts built in s: the successors are
// s's until its reset (see aScratch), and commit copies one out. The
// returned slice is reused by the next stepIn.
func (sc *stepCtx) stepIn(s *aScratch, c *AConfig, pi int) []*AConfig {
	s.out = s.out[:0]
	sc.run(s, c, pi, &s.out)
	return s.out
}

// run fires process pi of c with the written parts built in s (nil: on
// the heap), appending the successors to out.
func (sc *stepCtx) run(s *aScratch, c *AConfig, pi int, out *[]*AConfig) {
	base := s.shell(c)
	st := s.stepper()
	*st = astepper{sc: sc, scr: s, parent: c, cfg: base, proc: s.copyProcIn(base, pi), out: out}
	p := st.proc
	if hasPending(p) {
		st.curStmt = p.Frames[len(p.Frames)-1].Pending.stmt
		st.commitPending()
	} else {
		s := nextStmt(p)
		st.curStmt = s.NodeID()
		st.exec(s)
	}
}

// astepper executes one abstract transition; branching statements fork the
// stepper state. Every fork of one transition appends to the same out, in
// the order the branches finish.
type astepper struct {
	sc      *stepCtx
	scr     *aScratch // storage for the parts the step writes; nil: the heap
	parent  *AConfig  // the configuration being stepped, never written
	cfg     *AConfig
	proc    *AProc
	out     *[]*AConfig
	mayErr  bool
	curStmt lang.NodeID // statement being executed (footprint attribution)
}

func (st *astepper) frame() *AFrame { return st.proc.Frames[len(st.proc.Frames)-1] }

func (st *astepper) bump() {
	f := st.frame()
	f.Blocks[len(f.Blocks)-1].idx++
}

// emit finalizes the current stepper state as one successor.
func (st *astepper) emit() {
	st.settle(st.proc)
	st.cfg.MayError = st.cfg.MayError || st.mayErr
	*st.out = append(*st.out, st.cfg)
}

// emitError records that this branch may fault and produces no normal
// successor; the paper's abstract semantics over-approximates the
// non-error continuations, and the explorer reports MayError globally.
func (st *astepper) emitError() {
	errCfg := st.scr.config()
	errCfg.Store, errCfg.MayError = st.cfg.Store, true
	// errCfg.Procs stays nil: no continuation; terminal error witness.
	*st.out = append(*st.out, errCfg)
}

// fork duplicates the stepper so one branch can continue independently
// of another. The processes this stepper owns are copied for the fork;
// the rest stay shared with the state being stepped, and mutProc copies
// them before either branch writes to them.
func (st *astepper) fork() *astepper {
	nc := st.scr.shell(st.cfg)
	var proc *AProc
	for i, p := range nc.Procs {
		np := p
		if st.owns(p) {
			np = st.scr.copyProcIn(nc, i)
		}
		if p == st.proc {
			proc = np
		}
	}
	n2 := st.scr.stepper()
	*n2 = astepper{sc: st.sc, scr: st.scr, parent: st.parent, cfg: nc, proc: proc,
		out: st.out, mayErr: st.mayErr, curStmt: st.curStmt}
	return n2
}

// owns reports whether p is this stepper's to write: a process the step
// copied or created, which the parent does not hold.
func (st *astepper) owns(p *AProc) bool { return !slices.Contains(st.parent.Procs, p) }

func (st *astepper) mutProc(path string) *AProc {
	i := st.cfg.procIndex(path)
	if p := st.cfg.Procs[i]; st.owns(p) {
		return p
	}
	return st.scr.copyProcIn(st.cfg, i)
}

// exec runs one abstract statement.
func (st *astepper) exec(s lang.Stmt) {
	switch s := s.(type) {
	case *lang.VarStmt:
		if call, ok := s.Init.(*lang.CallExpr); ok {
			st.bump()
			st.call(s, call, aDest{kind: destLocal, slot: s.Slot})
			return
		}
		v, ok := st.eval(s, s.Init)
		if !ok {
			st.emitError()
			return
		}
		st.bump()
		st.frame().Locals[s.Slot] = v
		st.emit()

	case *lang.AssignStmt:
		if call, ok := s.Value.(*lang.CallExpr); ok {
			dest, ok2 := st.destOf(s, s.Target)
			if !ok2 {
				st.emitError()
				return
			}
			st.bump()
			st.call(s, call, dest)
			return
		}
		v, ok := st.eval(s, s.Value)
		if !ok {
			st.emitError()
			return
		}
		dest, ok := st.destOf(s, s.Target)
		if !ok {
			st.emitError()
			return
		}
		if st.splitWrite(s, dest) {
			st.frame().Pending = st.scr.pending(aPending{dest: dest, val: v, stmt: s.NodeID(), bump: true})
			st.emit()
			return
		}
		st.storeDest(dest, v)
		st.bump()
		st.emit()

	case *lang.CallStmt:
		st.bump()
		st.call(s, s.Call, aDest{kind: destNone})

	case *lang.CobeginStmt:
		st.bump()
		st.forkArms(s)
		st.emit()

	case *lang.IfStmt:
		v, ok := st.eval(s, s.Cond)
		if !ok {
			st.emitError()
			return
		}
		mt, mf := v.MayTruth()
		st.branch(s, mt, mf, func(b *astepper, taken bool) {
			b.bump()
			f := b.frame()
			if taken {
				f.Blocks = append(f.Blocks, blockPos{block: s.Then, idx: 0})
			} else if s.Else != nil {
				f.Blocks = append(f.Blocks, blockPos{block: s.Else, idx: 0})
			}
		})

	case *lang.WhileStmt:
		v, ok := st.eval(s, s.Cond)
		if !ok {
			st.emitError()
			return
		}
		mt, mf := v.MayTruth()
		st.branch(s, mt, mf, func(b *astepper, taken bool) {
			f := b.frame()
			if taken {
				f.Blocks = append(f.Blocks, blockPos{block: s.Body, idx: 0})
			} else {
				b.bump()
			}
		})

	case *lang.ReturnStmt:
		v := absdom.OfUndef(st.sc.dom)
		if s.Value != nil {
			var ok bool
			v, ok = st.eval(s, s.Value)
			if !ok {
				st.emitError()
				return
			}
		}
		st.ret(s, v, s.Value != nil)

	case *lang.SkipStmt:
		st.bump()
		st.emit()

	case *lang.AssertStmt:
		v, ok := st.eval(s, s.Cond)
		if !ok {
			st.emitError()
			return
		}
		mt, mf := v.MayTruth()
		if mf {
			st.mayErr = true
		}
		if !mt {
			st.emitError()
			return
		}
		st.bump()
		st.emit()

	case *lang.FreeStmt:
		if _, ok := st.eval(s, s.Ptr); !ok {
			st.emitError()
			return
		}
		// Abstract free keeps the summary (other folded objects live on);
		// subsequent accesses may dangle.
		st.mayErr = true
		st.bump()
		st.emit()

	default:
		st.emitError()
	}
}

// branch emits successors for the feasible outcomes of a condition.
func (st *astepper) branch(s lang.Stmt, mayTrue, mayFalse bool, apply func(*astepper, bool)) {
	switch {
	case mayTrue && mayFalse:
		other := st.fork()
		apply(st, true)
		st.emit()
		apply(other, false)
		other.emit()
	case mayTrue:
		apply(st, true)
		st.emit()
	case mayFalse:
		apply(st, false)
		st.emit()
	default:
		st.emitError()
	}
}

// commitPending performs the write phase of a split transition.
func (st *astepper) commitPending() {
	f := st.frame()
	op := f.Pending
	f.Pending = nil
	st.storeDest(op.dest, op.val)
	if op.bump {
		st.bump()
	}
	st.emit()
}

// splitWrite mirrors sem: split when the statement performed a critical
// read and the destination may be shared.
func (st *astepper) splitWrite(s lang.Stmt, dest aDest) bool {
	if dest.kind != destTargets {
		return false
	}
	shared := dest.all
	for _, t := range dest.ts {
		if st.targetShared(t) {
			shared = true
		}
	}
	if !shared {
		return false
	}
	// Conservative mirror of the concrete criterion: does the statement
	// read any possibly-shared storage? Use the static summary.
	sum := st.sc.sums.StmtSummary(s)
	for gi, r := range sum.GR {
		if r && st.sc.sharing.GlobalShared[gi] {
			return true
		}
	}
	return sum.HR && st.sc.sharing.HeapShared
}

func (st *astepper) targetShared(t absdom.Target) bool {
	if t.Heap {
		return st.sc.sharing.HeapShared
	}
	return st.sc.sharing.GlobalShared[t.Index]
}

// destOf resolves an assignment target.
func (st *astepper) destOf(s lang.Stmt, target lang.Expr) (aDest, bool) {
	switch t := target.(type) {
	case *lang.VarRef:
		switch t.Kind {
		case lang.RefLocal:
			return aDest{kind: destLocal, slot: t.Index}, true
		case lang.RefGlobal:
			return aDest{kind: destTargets, ts: st.sc.globalTs[t.Index]}, true
		}
		return aDest{}, false
	case *lang.DerefExpr:
		pv, ok := st.eval(s, t.Ptr)
		if !ok {
			return aDest{}, false
		}
		if pv.Ptrs.All {
			return aDest{kind: destTargets, all: true}, true
		}
		ts, _ := pv.PtrTargets()
		if len(ts) == 0 {
			st.mayErr = true
			return aDest{}, false
		}
		return aDest{kind: destTargets, ts: ts}, true
	}
	return aDest{}, false
}

// storeDest writes v to the destination.
func (st *astepper) storeDest(dest aDest, v absdom.Value) {
	switch dest.kind {
	case destNone:
	case destLocal:
		st.frame().Locals[dest.slot] = v
	case destTargets:
		st.recordWrite(dest.ts, dest.all)
		st.cfg.Store = st.cfg.Store.WriteTargetsIn(st.scr.stores(), dest.ts, dest.all, v)
	}
}

// call dispatches an abstract call: one successor per possible callee;
// recursion beyond the limit is havocked through the static summary.
func (st *astepper) call(s lang.Stmt, c *lang.CallExpr, dest aDest) {
	cv, ok := st.eval(s, c.Callee)
	if !ok {
		st.emitError()
		return
	}
	fns, finite := cv.FnTargets()
	if !finite {
		// Any function whose name is used as a value may run.
		fns = nil
		for _, f := range st.sc.prog.Funcs {
			fns = append(fns, f.Index)
		}
	}
	if len(fns) == 0 {
		st.mayErr = true
		st.emitError()
		return
	}
	args := st.scr.values(len(c.Args))
	for i, a := range c.Args {
		v, ok := st.eval(s, a)
		if !ok {
			st.emitError()
			return
		}
		args[i] = v
	}
	for i, fnIdx := range fns {
		target := st
		if i < len(fns)-1 {
			target = st.fork()
		}
		target.enter(s, fnIdx, args, dest)
	}
}

// enter pushes an activation of the function, or havocs it past the
// recursion limit.
func (st *astepper) enter(s lang.Stmt, fnIdx int, args []absdom.Value, dest aDest) {
	fn := st.sc.prog.Funcs[fnIdx]
	if len(args) != len(fn.Params) {
		st.mayErr = true
		st.emitError()
		return
	}
	depth := 0
	for _, f := range st.proc.Frames {
		if f.Fn == fn {
			depth++
		}
	}
	if depth >= st.sc.recLim {
		st.havoc(fn, dest)
		st.emit()
		return
	}
	info := st.sc.prog.ResolvedInfo().Funcs[fn]
	nf := st.scr.frame()
	*nf = AFrame{
		Fn:       fn,
		Locals:   st.scr.values(info.FrameSize),
		Blocks:   append(st.scr.blockStack(0), blockPos{block: fn.Body, idx: 0}),
		Dest:     dest,
		hasEntry: true,
	}
	for i := range nf.Locals {
		nf.Locals[i] = absdom.OfUndef(st.sc.dom)
	}
	copy(nf.Locals, args)
	st.proc.Frames = append(st.proc.Frames, nf)
	st.proc.PStr = append(st.proc.PStr, pstring.Sym{
		Kind: pstring.SymCall, Site: int(s.NodeID()), Which: fn.Index,
	})
	st.emit()
}

// havoc applies a summarized call: every global the callee may write and
// every heap summary it may write go to ⊤; the result is ⊤. Footprints
// record the summary's accesses conservatively.
func (st *astepper) havoc(fn *lang.FuncDecl, dest aDest) {
	sum := st.sc.sums.FnSummary(fn)
	top := absdom.TopValue(st.sc.dom)
	store := st.cfg.Store
	for gi, w := range sum.GW {
		if w {
			store = store.SetGlobalIn(st.scr.stores(), gi, top)
			st.recordWrite([]absdom.Target{{Index: gi}}, false)
		}
	}
	for gi, r := range sum.GR {
		if r {
			st.recordRead([]absdom.Target{{Index: gi}}, false)
		}
	}
	if sum.HW {
		store = store.WriteTargetsIn(st.scr.stores(), nil, true, top)
		st.recordWrite(nil, true)
	} else if sum.HR {
		st.recordRead(nil, true)
	}
	st.cfg.Store = store
	st.storeDest(dest, top)
}

// ret pops the frame and delivers the value.
func (st *astepper) ret(s lang.Stmt, v absdom.Value, hasValue bool) {
	f := st.frame()
	if f.Dest.kind != destNone && !hasValue {
		st.mayErr = true
		st.emitError()
		return
	}
	split := st.splitWrite(s, f.Dest)
	st.proc.Frames = st.proc.Frames[:len(st.proc.Frames)-1]
	if f.hasEntry && len(st.proc.PStr) > 0 {
		st.proc.PStr = st.proc.PStr[:len(st.proc.PStr)-1]
	}
	if len(st.proc.Frames) == 0 {
		st.emit()
		return
	}
	if split {
		st.frame().Pending = st.scr.pending(aPending{dest: f.Dest, val: v, stmt: s.NodeID(), bump: false})
		st.emit()
		return
	}
	st.storeDest(f.Dest, v)
	st.emit()
}

// forkArms spawns abstract children for a cobegin. Under clan folding,
// arms with identical block text share one abstract process whose Clan
// count abstracts the multiplicity.
func (st *astepper) forkArms(s *lang.CobeginStmt) {
	parent := st.proc
	parent.Status = WaitJoin
	pf := parent.Frames[len(parent.Frames)-1]

	type armGroup struct {
		arms []int
		rep  *lang.Block
	}
	groups := []armGroup{}
	if st.sc.clan {
		byText := map[string][]int{}
		order := []string{}
		for i, arm := range s.Arms {
			txt := blockText(arm)
			if _, ok := byText[txt]; !ok {
				order = append(order, txt)
			}
			byText[txt] = append(byText[txt], i)
		}
		for _, txt := range order {
			idxs := byText[txt]
			groups = append(groups, armGroup{arms: idxs, rep: s.Arms[idxs[0]]})
		}
	} else {
		for i, arm := range s.Arms {
			groups = append(groups, armGroup{arms: []int{i}, rep: arm})
		}
	}

	parent.LiveKids = len(groups)
	for _, g := range groups {
		locals := append([]absdom.Value(nil), pf.Locals...)
		frameLocals := append([]absdom.Value(nil), pf.Locals...)
		child := &AProc{
			Path:   parent.Path + "/" + strconv.Itoa(g.arms[0]),
			Status: Running,
			Parent: parent.Path,
			Clan:   len(g.arms),
			PStr: append(append([]pstring.Sym(nil), parent.PStr...), pstring.Sym{
				Kind: pstring.SymThread, Site: int(s.NodeID()), Which: g.arms[0],
			}),
			ArmBlock:   g.rep,
			ArmFn:      pf.Fn,
			InitLocals: locals,
			Frames: []*AFrame{{
				Fn:       pf.Fn,
				Locals:   frameLocals,
				Blocks:   []blockPos{{block: g.rep, idx: 0}},
				hasEntry: true,
			}},
		}
		st.cfg.insertSorted(child)
		st.settle(child)
	}
}

// blockText renders a block for clan grouping.
func blockText(b *lang.Block) string {
	var sb []byte
	lang.WalkStmts(b, func(s lang.Stmt) {
		sb = append(sb, describeShape(s)...)
		sb = append(sb, ';')
	})
	return string(sb)
}

func describeShape(s lang.Stmt) string {
	switch s := s.(type) {
	case *lang.VarStmt:
		return "var " + s.Name + "=" + lang.ExprString(s.Init)
	case *lang.AssignStmt:
		return lang.ExprString(s.Target) + "=" + lang.ExprString(s.Value)
	case *lang.CallStmt:
		return lang.ExprString(s.Call)
	case *lang.IfStmt:
		return "if " + lang.ExprString(s.Cond)
	case *lang.WhileStmt:
		return "while " + lang.ExprString(s.Cond)
	case *lang.ReturnStmt:
		if s.Value != nil {
			return "return " + lang.ExprString(s.Value)
		}
		return "return"
	case *lang.AssertStmt:
		return "assert " + lang.ExprString(s.Cond)
	case *lang.FreeStmt:
		return "free " + lang.ExprString(s.Ptr)
	case *lang.SkipStmt:
		return "skip"
	case *lang.CobeginStmt:
		out := "cobegin"
		for _, a := range s.Arms {
			out += "{" + blockText(a) + "}"
		}
		return out
	}
	return "?"
}

// settle mirrors sem.settle: pop exhausted control eagerly.
func (st *astepper) settle(p *AProc) {
	for {
		if p.Status != Running {
			return
		}
		if len(p.Frames) == 0 {
			if p.Clan >= 2 && p.ArmBlock != nil && p.Parent != "" {
				// ω-clan member finished: another member may not have run
				// yet (multiplicity is abstracted away), so a successor
				// where the clan respawns at the arm start must exist
				// alongside the all-members-done join below.
				st.clanRespawn(p)
			}
			st.finish(p)
			return
		}
		f := p.Frames[len(p.Frames)-1]
		if f.Pending != nil {
			return
		}
		if len(f.Blocks) == 0 {
			if f.Dest.kind != destNone {
				st.mayErr = true
				// Treat as delivering ⊤ (missing return is a concrete
				// error; over-approximate the continuations).
			}
			p.Frames = p.Frames[:len(p.Frames)-1]
			if f.hasEntry && len(p.PStr) > 0 {
				p.PStr = p.PStr[:len(p.PStr)-1]
			}
			if len(p.Frames) > 0 && f.Dest.kind != destNone {
				st.storeDestOn(p, f.Dest, absdom.TopValue(st.sc.dom))
			}
			continue
		}
		bp := &f.Blocks[len(f.Blocks)-1]
		if bp.idx >= len(bp.block.Stmts) {
			f.Blocks = f.Blocks[:len(f.Blocks)-1]
			continue
		}
		return
	}
}

func (st *astepper) storeDestOn(p *AProc, dest aDest, v absdom.Value) {
	switch dest.kind {
	case destLocal:
		f := p.Frames[len(p.Frames)-1]
		f.Locals[dest.slot] = v
	case destTargets:
		st.cfg.Store = st.cfg.Store.WriteTargetsIn(st.scr.stores(), dest.ts, dest.all, v)
	}
}

// clanRespawn emits the successor in which the folded clan keeps running:
// the configuration forks, and in the fork the clan process restarts at
// the beginning of its arm with fresh copy-in locals.
func (st *astepper) clanRespawn(p *AProc) {
	alt := st.fork()
	ap := alt.cfg.Procs[alt.cfg.procIndex(p.Path)]
	ap.Frames = []*AFrame{{
		Fn:       ap.ArmFn,
		Locals:   append([]absdom.Value(nil), ap.InitLocals...),
		Blocks:   []blockPos{{block: ap.ArmBlock, idx: 0}},
		hasEntry: true,
	}}
	alt.cfg.MayError = alt.cfg.MayError || alt.mayErr
	*st.out = append(*st.out, alt.cfg)
}

// finish completes a process.
func (st *astepper) finish(p *AProc) {
	if p.Parent == "" {
		p.Status = Done
		return
	}
	if i := st.cfg.procIndex(p.Path); i >= 0 {
		st.cfg.removeAt(i)
	}
	parent := st.mutProc(p.Parent)
	parent.LiveKids--
	if parent.LiveKids == 0 {
		parent.Status = Running
		st.settle(parent)
	}
}
