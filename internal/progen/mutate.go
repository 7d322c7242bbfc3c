package progen

import (
	"fmt"
	"math/rand"

	"psa/internal/lang"
)

// Mutate applies one seed-reproducible, single-procedure edit to a
// cobegin program and returns the edited source plus a short description
// of the edit. The catalogue covers one edit of each kind the
// incremental analysis layer must stay bit-identical under
// (testdata/edits has a hand-written chain per class):
//
//   - rename a parameter (α-neutral: a no-op edit for the analysis
//     unless clan folding is on),
//   - tweak an integer literal assigned to a global (a value edit),
//   - insert a skip or an always-true assert (a structural edit),
//   - append a skip to a cobegin arm (a concurrency-structure edit),
//   - add an uncalled procedure / delete an uncalled non-main procedure
//     (function-list edits, which change the procedure list).
//
// The same (src, seed) pair always yields the same edit, and the result
// always re-parses: Mutate is the edit generator behind psasoak's
// oracle 5, so reproducibility from the reported seed is part of its
// contract. An unparseable input returns an error.
func Mutate(src string, seed int64) (out, desc string, err error) {
	prog, err := lang.Parse(src)
	if err != nil {
		return "", "", fmt.Errorf("progen: mutate input does not parse: %w", err)
	}
	r := rand.New(rand.NewSource(seed))

	type edit struct {
		desc  string
		apply func()
	}
	var edits []edit
	add := func(desc string, apply func()) {
		edits = append(edits, edit{desc: desc, apply: apply})
	}

	used := usedNames(prog)
	freshName := func(base string) string {
		name := base
		for used[name] {
			name += "r"
		}
		used[name] = true
		return name
	}

	for _, f := range prog.Funcs {
		fn := f
		// Rename a parameter not shadowed by a local declaration — then
		// every RefLocal reference to that name in the body is the
		// parameter, and a uniform rewrite is correct.
		for pi, param := range fn.Params {
			if param == "" || redeclares(fn.Body, param) {
				continue
			}
			pi, param := pi, param
			add(fmt.Sprintf("rename param %s of %s", param, fn.Name), func() {
				nn := freshName(param + "r")
				fn.Params[pi] = nn
				lang.WalkStmts(fn.Body, func(s lang.Stmt) {
					lang.WalkExprs(s, func(e lang.Expr) {
						if vr, ok := e.(*lang.VarRef); ok && vr.Kind == lang.RefLocal && vr.Name == param {
							vr.Name = nn
						}
					})
				})
			})
		}
		lang.WalkStmts(fn.Body, func(s lang.Stmt) {
			switch s := s.(type) {
			case *lang.AssignStmt:
				vr, isVar := s.Target.(*lang.VarRef)
				lit, isLit := s.Value.(*lang.IntLit)
				if isVar && vr.Kind == lang.RefGlobal && isLit {
					add(fmt.Sprintf("tweak literal %s=%d in %s", vr.Name, lit.Value, fn.Name),
						func() { lit.Value++ })
				}
			case *lang.CobeginStmt:
				for ai, arm := range s.Arms {
					arm := arm
					add(fmt.Sprintf("append skip to cobegin arm %d in %s", ai, fn.Name),
						func() { arm.Stmts = append(arm.Stmts, &lang.SkipStmt{}) })
				}
			}
		})
		blocks := bodyBlocks(fn.Body)
		for _, b := range blocks {
			b := b
			add(fmt.Sprintf("insert skip in %s", fn.Name), func() {
				insertStmt(b, r.Intn(len(b.Stmts)+1), &lang.SkipStmt{})
			})
			add(fmt.Sprintf("insert assert in %s", fn.Name), func() {
				insertStmt(b, r.Intn(len(b.Stmts)+1),
					&lang.AssertStmt{Cond: &lang.IntLit{Value: 1}})
			})
		}
		if fn.Name != "main" && !referenced(prog, fn) {
			add("delete uncalled procedure "+fn.Name, func() {
				for i, g := range prog.Funcs {
					if g == fn {
						prog.Funcs = append(prog.Funcs[:i], prog.Funcs[i+1:]...)
						break
					}
				}
			})
		}
	}
	add("add uncalled procedure", func() {
		name := freshName("mz")
		prog.Funcs = append(prog.Funcs, &lang.FuncDecl{
			Name: name,
			Body: &lang.Block{Stmts: []lang.Stmt{&lang.SkipStmt{}}},
		})
	})

	e := edits[r.Intn(len(edits))]
	e.apply()
	out = lang.Format(prog)
	if _, err := lang.Parse(out); err != nil {
		return "", "", fmt.Errorf("progen: mutation %q broke the program: %w\n%s", e.desc, err, out)
	}
	return out, e.desc, nil
}

// usedNames collects every identifier that could collide with a fresh
// name: globals, functions, parameters, and declared locals.
func usedNames(p *lang.Program) map[string]bool {
	used := map[string]bool{}
	for _, g := range p.Globals {
		used[g.Name] = true
	}
	for _, f := range p.Funcs {
		used[f.Name] = true
		for _, prm := range f.Params {
			used[prm] = true
		}
		lang.WalkStmts(f.Body, func(s lang.Stmt) {
			if vs, ok := s.(*lang.VarStmt); ok {
				used[vs.Name] = true
			}
		})
	}
	return used
}

// redeclares reports whether any local declaration in the body shadows
// name.
func redeclares(b *lang.Block, name string) bool {
	found := false
	lang.WalkStmts(b, func(s lang.Stmt) {
		if vs, ok := s.(*lang.VarStmt); ok && vs.Name == name {
			found = true
		}
	})
	return found
}

// referenced reports whether fn's name appears as a function reference
// anywhere in the program (calls and first-class uses alike).
func referenced(p *lang.Program, fn *lang.FuncDecl) bool {
	found := false
	for _, f := range p.Funcs {
		lang.WalkStmts(f.Body, func(s lang.Stmt) {
			lang.WalkExprs(s, func(e lang.Expr) {
				if vr, ok := e.(*lang.VarRef); ok && vr.Kind == lang.RefFunc && vr.Name == fn.Name {
					found = true
				}
			})
		})
	}
	return found
}

// bodyBlocks lists every block of a function body, outermost first.
func bodyBlocks(b *lang.Block) []*lang.Block {
	out := []*lang.Block{b}
	lang.WalkStmts(b, func(s lang.Stmt) {
		switch s := s.(type) {
		case *lang.IfStmt:
			out = append(out, s.Then)
			if s.Else != nil {
				out = append(out, s.Else)
			}
		case *lang.WhileStmt:
			out = append(out, s.Body)
		case *lang.CobeginStmt:
			out = append(out, s.Arms...)
		}
	})
	return out
}

func insertStmt(b *lang.Block, at int, s lang.Stmt) {
	b.Stmts = append(b.Stmts, nil)
	copy(b.Stmts[at+1:], b.Stmts[at:])
	b.Stmts[at] = s
}
