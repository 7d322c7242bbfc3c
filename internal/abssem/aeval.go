package abssem

import (
	"psa/internal/absdom"
	"psa/internal/lang"
	"psa/internal/pstring"
)

// eval computes the abstract value of an expression. ok is false when NO
// concrete evaluation could produce a value (definite fault); a partial
// fault (e.g. one pointer target of several) sets mayErr and continues
// with the feasible components.
func (st *astepper) eval(s lang.Stmt, e lang.Expr) (absdom.Value, bool) {
	d := st.sc.dom
	switch e := e.(type) {
	case *lang.IntLit:
		return absdom.OfInt(d, e.Value), true

	case *lang.VarRef:
		switch e.Kind {
		case lang.RefLocal:
			return st.frame().Locals[e.Index], true
		case lang.RefGlobal:
			st.recordRead([]absdom.Target{{Index: e.Index}}, false)
			return st.cfg.Store.Global(e.Index), true
		case lang.RefFunc:
			return absdom.OfFn(d, e.Index), true
		}
		return absdom.Bot(d), false

	case *lang.UnaryExpr:
		v, ok := st.eval(s, e.X)
		if !ok {
			return v, false
		}
		if v.Undef {
			st.mayErr = true
		}
		switch e.Op {
		case lang.TokMinus:
			if v.Num.IsBot() {
				return absdom.Bot(d), false
			}
			return absdom.Value{Num: d.Neg(v.Num)}, true
		default: // !
			mt, mf := v.MayTruth()
			switch {
			case mt && mf:
				return absdom.Value{Num: d.Join(d.Of(0), d.Of(1))}, true
			case mt:
				return absdom.OfInt(d, 0), true
			case mf:
				return absdom.OfInt(d, 1), true
			}
			return absdom.Bot(d), false
		}

	case *lang.DerefExpr:
		pv, ok := st.eval(s, e.Ptr)
		if !ok {
			return pv, false
		}
		if pv.Undef || !pv.Num.IsBot() {
			st.mayErr = true // dereferencing a number or undef faults
		}
		if pv.Ptrs.All {
			st.recordRead(nil, true)
			return absdom.TopValue(d), true
		}
		ts, _ := pv.PtrTargets()
		if len(ts) == 0 {
			return absdom.Bot(d), false
		}
		st.recordRead(ts, false)
		out := absdom.Bot(d)
		for _, t := range ts {
			out = out.Join(st.cfg.Store.Load(t))
		}
		if out.Undef {
			st.mayErr = true // reading an uninitialized cell
		}
		return out, true

	case *lang.AddrExpr:
		return absdom.OfPtr(d, absdom.Target{Index: e.Index}), true

	case *lang.BinaryExpr:
		x, ok := st.eval(s, e.X)
		if !ok {
			return x, false
		}
		y, ok := st.eval(s, e.Y)
		if !ok {
			return y, false
		}
		return st.binop(e.Op, x, y)

	case *lang.CallExpr:
		// Only reachable as a nested call, which the resolver forbids.
		return absdom.Bot(d), false

	case *lang.MallocExpr:
		if _, ok := st.eval(s, e.Count); !ok {
			return absdom.Bot(d), false
		}
		t := absdom.Target{
			Heap:  true,
			Site:  e.NodeID(),
			Birth: pstring.AbstractSyms(st.proc.PStr, st.sc.kBirth),
		}
		// Fresh cells are undefined; the summary covers them weakly.
		st.cfg.Store = st.cfg.Store.JoinHeapIn(st.scr.stores(), t, absdom.OfUndef(d))
		return absdom.OfPtr(d, t), true
	}
	return absdom.Bot(st.sc.dom), false
}

// binop combines two abstract values under an operator: numeric transfer
// plus pointer arithmetic plus pointer/function comparisons.
func (st *astepper) binop(op lang.TokKind, x, y absdom.Value) (absdom.Value, bool) {
	d := st.sc.dom
	if x.Undef || y.Undef {
		st.mayErr = true
	}
	out := absdom.Bot(d)

	// Numeric component.
	if !x.Num.IsBot() && !y.Num.IsBot() {
		out = out.Join(absdom.Value{Num: d.Binop(op, x.Num, y.Num)})
	}

	xHasPtr := !x.Ptrs.All && x.Ptrs.S.Len() > 0 || x.Ptrs.All
	yHasPtr := !y.Ptrs.All && y.Ptrs.S.Len() > 0 || y.Ptrs.All
	xHasFn := !x.Fns.All && x.Fns.S.Len() > 0 || x.Fns.All
	yHasFn := !y.Fns.All && y.Fns.S.Len() > 0 || y.Fns.All

	switch op {
	case lang.TokPlus, lang.TokMinus:
		// Pointer arithmetic keeps the target set (offsets are folded by
		// the field-insensitive heap abstraction).
		if xHasPtr && !y.Num.IsBot() {
			out = out.Join(absdom.Value{Num: d.Bot(), Ptrs: x.Ptrs})
		}
		if op == lang.TokPlus && yHasPtr && !x.Num.IsBot() {
			out = out.Join(absdom.Value{Num: d.Bot(), Ptrs: y.Ptrs})
		}
	case lang.TokEq, lang.TokNe:
		// Comparisons involving pointers or functions: any outcome.
		if xHasPtr || yHasPtr || xHasFn || yHasFn {
			out = out.Join(absdom.Value{Num: d.Join(d.Of(0), d.Of(1))})
		}
	case lang.TokAnd, lang.TokParallel:
		if xHasPtr || yHasPtr || xHasFn || yHasFn {
			// Pointers/functions are truthy; fall back to coarse bool.
			out = out.Join(absdom.Value{Num: d.Join(d.Of(0), d.Of(1))})
		}
	}

	if out.IsBot() {
		return out, false
	}
	return out, true
}
