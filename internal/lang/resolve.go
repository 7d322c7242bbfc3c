package lang

import (
	"fmt"
	"sort"
)

// FuncInfo holds per-function resolution results.
type FuncInfo struct {
	// FrameSize is the number of value slots in an activation frame:
	// parameters first, then every local declared anywhere in the body.
	FrameSize int
	// LocalNames maps slot index to the declared name (diagnostics).
	LocalNames []string
}

// Info holds program-wide resolution results, stored on the Program.
type Info struct {
	Funcs map[*FuncDecl]*FuncInfo
	// Labels maps each statement label to its statement.
	Labels map[string]Stmt
}

// ResolvedInfo returns the resolution results (nil before Resolve).
func (p *Program) ResolvedInfo() *Info { return p.info }

// Resolve performs name resolution and static validation:
//
//   - globals, functions, parameters, and block-scoped locals are bound;
//   - '&' may only take the address of a global (shared) variable;
//   - calls may appear only as statements or as the entire right-hand side
//     of an assignment or local declaration, keeping one call per atomic
//     transition;
//   - statement labels are unique program-wide;
//   - a cobegin arm may not assign to a local declared outside the arm
//     (enclosing locals are copied in; the parent is blocked at the cobegin,
//     so such reads are exact), and may not return from the enclosing
//     procedure;
//   - main must exist and take no parameters.
func Resolve(p *Program) error {
	r := &resolver{
		prog:    p,
		globals: make(map[string]int),
		funcs:   make(map[string]int),
		labels:  make(map[string]Stmt),
	}
	p.globalIndex = r.globals
	p.funcIndex = r.funcs
	p.info = &Info{Funcs: make(map[*FuncDecl]*FuncInfo), Labels: r.labels}

	for _, g := range p.Globals {
		if _, dup := r.globals[g.Name]; dup {
			return r.errf(g.Pos, "duplicate global %q", g.Name)
		}
		r.globals[g.Name] = g.Index
	}
	for _, f := range p.Funcs {
		if _, dup := r.funcs[f.Name]; dup {
			return r.errf(f.Pos, "duplicate function %q", f.Name)
		}
		if _, shadow := r.globals[f.Name]; shadow {
			return r.errf(f.Pos, "function %q collides with a global variable", f.Name)
		}
		r.funcs[f.Name] = f.Index
	}
	mainFn := p.Func("main")
	if mainFn == nil {
		return r.errf(Pos{Line: 1, Col: 1}, "program has no 'main' function")
	}
	if len(mainFn.Params) != 0 {
		return r.errf(mainFn.Pos, "'main' must take no parameters")
	}

	for _, f := range p.Funcs {
		if err := r.resolveFunc(f); err != nil {
			return err
		}
	}
	return nil
}

type localBinding struct {
	name    string
	slot    int
	armPath string // cobegin arm path at declaration, "" at top level
}

type scope struct {
	parent   *scope
	bindings map[string]*localBinding
}

type resolver struct {
	prog    *Program
	globals map[string]int
	funcs   map[string]int
	labels  map[string]Stmt

	// Per-function state:
	fn       *FuncDecl
	fnInfo   *FuncInfo
	scope    *scope
	armPath  string
	armCount int
}

func (r *resolver) errf(pos Pos, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func (r *resolver) push() { r.scope = &scope{parent: r.scope, bindings: map[string]*localBinding{}} }
func (r *resolver) pop()  { r.scope = r.scope.parent }

func (r *resolver) declare(pos Pos, name string) (*localBinding, error) {
	if _, dup := r.scope.bindings[name]; dup {
		return nil, r.errf(pos, "%q redeclared in this block", name)
	}
	b := &localBinding{name: name, slot: r.fnInfo.FrameSize, armPath: r.armPath}
	r.fnInfo.FrameSize++
	r.fnInfo.LocalNames = append(r.fnInfo.LocalNames, name)
	r.scope.bindings[name] = b
	return b, nil
}

func (r *resolver) lookupLocal(name string) *localBinding {
	for s := r.scope; s != nil; s = s.parent {
		if b, ok := s.bindings[name]; ok {
			return b
		}
	}
	return nil
}

func (r *resolver) resolveFunc(f *FuncDecl) error {
	r.fn = f
	r.fnInfo = &FuncInfo{}
	r.prog.info.Funcs[f] = r.fnInfo
	r.scope = nil
	r.armPath = ""
	r.armCount = 0
	r.push()
	for _, pname := range f.Params {
		if _, err := r.declare(f.Pos, pname); err != nil {
			return err
		}
	}
	if err := r.resolveBlock(f.Body, false); err != nil {
		return err
	}
	r.pop()
	return nil
}

func (r *resolver) resolveBlock(b *Block, newScope bool) error {
	if newScope {
		r.push()
		defer r.pop()
	}
	for _, s := range b.Stmts {
		if err := r.resolveStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (r *resolver) resolveStmt(s Stmt) error {
	if lbl := s.Label(); lbl != "" {
		if prev, dup := r.labels[lbl]; dup {
			return r.errf(s.NodePos(), "label %q already used at %s", lbl, prev.NodePos())
		}
		r.labels[lbl] = s
	}
	switch s := s.(type) {
	case *VarStmt:
		// Initializer resolves before the declaration is visible.
		if err := r.resolveExpr(s.Init, true); err != nil {
			return err
		}
		b, err := r.declare(s.NodePos(), s.Name)
		if err != nil {
			return err
		}
		s.Slot = b.slot
		return nil

	case *AssignStmt:
		if err := r.resolveExpr(s.Target, false); err != nil {
			return err
		}
		if v, ok := s.Target.(*VarRef); ok {
			switch v.Kind {
			case RefFunc:
				return r.errf(v.NodePos(), "cannot assign to function %q", v.Name)
			case RefLocal:
				if b := r.lookupLocal(v.Name); b != nil && b.armPath != r.armPath {
					return r.errf(v.NodePos(),
						"cobegin arm cannot assign to %q declared outside the arm (enclosing locals are read-only in arms)", v.Name)
				}
			}
		}
		return r.resolveExpr(s.Value, true)

	case *CallStmt:
		return r.resolveCall(s.Call)

	case *CobeginStmt:
		saved := r.armPath
		for _, arm := range s.Arms {
			r.armCount++
			r.armPath = fmt.Sprintf("%s/%d", saved, r.armCount)
			if err := r.resolveBlock(arm, true); err != nil {
				return err
			}
		}
		r.armPath = saved
		return nil

	case *IfStmt:
		if err := r.resolveExpr(s.Cond, false); err != nil {
			return err
		}
		if err := r.resolveBlock(s.Then, true); err != nil {
			return err
		}
		if s.Else != nil {
			return r.resolveBlock(s.Else, true)
		}
		return nil

	case *WhileStmt:
		if err := r.resolveExpr(s.Cond, false); err != nil {
			return err
		}
		return r.resolveBlock(s.Body, true)

	case *ReturnStmt:
		if r.armPath != "" {
			return r.errf(s.NodePos(), "return is not allowed inside a cobegin arm")
		}
		if s.Value != nil {
			return r.resolveExpr(s.Value, false)
		}
		return nil

	case *SkipStmt:
		return nil

	case *AssertStmt:
		return r.resolveExpr(s.Cond, false)

	case *FreeStmt:
		return r.resolveExpr(s.Ptr, false)
	}
	return r.errf(s.NodePos(), "unknown statement type %T", s)
}

// resolveExpr resolves e. If topRHS, e is the entire right-hand side of an
// assignment or declaration, where a single call or malloc is permitted.
func (r *resolver) resolveExpr(e Expr, topRHS bool) error {
	switch e := e.(type) {
	case *IntLit:
		return nil

	case *VarRef:
		if b := r.lookupLocal(e.Name); b != nil {
			e.Kind = RefLocal
			e.Index = b.slot
			return nil
		}
		if gi, ok := r.globals[e.Name]; ok {
			e.Kind = RefGlobal
			e.Index = gi
			return nil
		}
		if fi, ok := r.funcs[e.Name]; ok {
			e.Kind = RefFunc
			e.Index = fi
			return nil
		}
		return r.errf(e.NodePos(), "undefined name %q", e.Name)

	case *UnaryExpr:
		return r.resolveExpr(e.X, false)

	case *DerefExpr:
		return r.resolveExpr(e.Ptr, false)

	case *AddrExpr:
		gi, ok := r.globals[e.Name]
		if !ok {
			if r.lookupLocal(e.Name) != nil {
				return r.errf(e.NodePos(), "cannot take the address of local %q (only globals have addressable shared storage)", e.Name)
			}
			return r.errf(e.NodePos(), "undefined global %q in address-of", e.Name)
		}
		e.Index = gi
		return nil

	case *BinaryExpr:
		if err := r.resolveExpr(e.X, false); err != nil {
			return err
		}
		return r.resolveExpr(e.Y, false)

	case *CallExpr:
		if !topRHS {
			return r.errf(e.NodePos(), "calls may only appear as a statement or as the entire right-hand side of an assignment")
		}
		return r.resolveCall(e)

	case *MallocExpr:
		return r.resolveExpr(e.Count, false)
	}
	return r.errf(e.NodePos(), "unknown expression type %T", e)
}

func (r *resolver) resolveCall(c *CallExpr) error {
	if err := r.resolveExpr(c.Callee, false); err != nil {
		return err
	}
	if v, ok := c.Callee.(*VarRef); ok && v.Kind == RefFunc {
		f := r.prog.Funcs[v.Index]
		if len(c.Args) != len(f.Params) {
			return r.errf(c.NodePos(), "call to %q has %d arguments, want %d", f.Name, len(c.Args), len(f.Params))
		}
	}
	for _, a := range c.Args {
		if err := r.resolveExpr(a, false); err != nil {
			return err
		}
	}
	return nil
}

// SortedLabels returns all statement labels in sorted order.
func (p *Program) SortedLabels() []string {
	if p.info == nil {
		return nil
	}
	out := make([]string, 0, len(p.info.Labels))
	for l := range p.info.Labels {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}
