package lang

import "fmt"

// Parse lexes and parses src into a Program, then resolves names and
// validates the result. It is the usual entry point for program text.
func Parse(src string) (*Program, error) {
	prog, err := ParseOnly(src)
	if err != nil {
		return nil, err
	}
	if err := Resolve(prog); err != nil {
		return nil, err
	}
	return prog, nil
}

// MustParse is Parse that panics on error; for tests and builders of
// known-good fixture programs.
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// ParseOnly parses without resolving; useful for testing the parser itself.
func ParseOnly(src string) (*Program, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	ps := &parser{toks: toks, prog: &Program{Source: src}}
	if err := ps.parseProgram(); err != nil {
		return nil, err
	}
	return ps.prog, nil
}

type parser struct {
	toks []Token
	pos  int
	prog *Program
}

func (ps *parser) cur() Token  { return ps.toks[ps.pos] }
func (ps *parser) next() Token { t := ps.toks[ps.pos]; ps.pos++; return t }

func (ps *parser) peekKind(k TokKind) bool { return ps.cur().Kind == k }

// peekKind2 reports the kind of the token after the current one.
func (ps *parser) peekKind2(k TokKind) bool {
	if ps.pos+1 >= len(ps.toks) {
		return false
	}
	return ps.toks[ps.pos+1].Kind == k
}

func (ps *parser) accept(k TokKind) bool {
	if ps.peekKind(k) {
		ps.pos++
		return true
	}
	return false
}

func (ps *parser) expect(k TokKind) (Token, error) {
	if ps.peekKind(k) {
		return ps.next(), nil
	}
	return Token{}, &Error{
		Pos: ps.cur().Pos,
		Msg: fmt.Sprintf("expected %q, found %s", k.String(), ps.cur()),
	}
}

func (ps *parser) errf(pos Pos, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func (ps *parser) parseProgram() error {
	for !ps.peekKind(TokEOF) {
		switch ps.cur().Kind {
		case TokVar:
			g, err := ps.parseGlobal()
			if err != nil {
				return err
			}
			g.Index = len(ps.prog.Globals)
			ps.prog.Globals = append(ps.prog.Globals, g)
		case TokFunc:
			f, err := ps.parseFunc()
			if err != nil {
				return err
			}
			f.Index = len(ps.prog.Funcs)
			ps.prog.Funcs = append(ps.prog.Funcs, f)
		default:
			return ps.errf(ps.cur().Pos, "expected top-level 'var' or 'func', found %s", ps.cur())
		}
	}
	return nil
}

func (ps *parser) parseGlobal() (*GlobalDecl, error) {
	kw := ps.next() // var
	name, err := ps.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	g := &GlobalDecl{ID: ps.prog.newID(), Pos: kw.Pos, Name: name.Text}
	if ps.accept(TokAssign) {
		neg := ps.accept(TokMinus)
		lit, err := ps.expect(TokInt)
		if err != nil {
			return nil, err
		}
		g.Init = lit.Int
		if neg {
			g.Init = -g.Init
		}
	}
	if _, err := ps.expect(TokSemi); err != nil {
		return nil, err
	}
	ps.prog.register(g)
	return g, nil
}

func (g *GlobalDecl) NodeID() NodeID { return g.ID }
func (g *GlobalDecl) NodePos() Pos   { return g.Pos }

func (f *FuncDecl) NodeID() NodeID { return f.ID }
func (f *FuncDecl) NodePos() Pos   { return f.Pos }

func (b *Block) NodeID() NodeID { return b.ID }
func (b *Block) NodePos() Pos   { return b.Pos }

func (ps *parser) parseFunc() (*FuncDecl, error) {
	kw := ps.next() // func
	name, err := ps.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := ps.expect(TokLParen); err != nil {
		return nil, err
	}
	f := &FuncDecl{ID: ps.prog.newID(), Pos: kw.Pos, Name: name.Text}
	if !ps.peekKind(TokRParen) {
		for {
			p, err := ps.expect(TokIdent)
			if err != nil {
				return nil, err
			}
			f.Params = append(f.Params, p.Text)
			if !ps.accept(TokComma) {
				break
			}
		}
	}
	if _, err := ps.expect(TokRParen); err != nil {
		return nil, err
	}
	f.Body, err = ps.parseBlock()
	if err != nil {
		return nil, err
	}
	ps.prog.register(f)
	return f, nil
}

func (ps *parser) parseBlock() (*Block, error) {
	lb, err := ps.expect(TokLBrace)
	if err != nil {
		return nil, err
	}
	b := &Block{ID: ps.prog.newID(), Pos: lb.Pos}
	for !ps.peekKind(TokRBrace) {
		if ps.peekKind(TokEOF) {
			return nil, ps.errf(lb.Pos, "unterminated block")
		}
		s, err := ps.parseStmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	ps.next() // }
	ps.prog.register(b)
	return b, nil
}

func (ps *parser) parseStmt() (Stmt, error) {
	label := ""
	if ps.peekKind(TokIdent) && ps.peekKind2(TokColon) {
		label = ps.next().Text
		ps.next() // :
	}
	s, err := ps.parseBaseStmt(label)
	if err != nil {
		return nil, err
	}
	ps.prog.register(s)
	return s, nil
}

func (ps *parser) stmtBase(pos Pos, label string) stmtBase {
	return stmtBase{ID: ps.prog.newID(), Pos: pos, Lbl: label}
}

func (ps *parser) parseBaseStmt(label string) (Stmt, error) {
	t := ps.cur()
	switch t.Kind {
	case TokVar:
		ps.next()
		name, err := ps.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		if _, err := ps.expect(TokAssign); err != nil {
			return nil, err
		}
		init, err := ps.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := ps.expect(TokSemi); err != nil {
			return nil, err
		}
		return &VarStmt{stmtBase: ps.stmtBase(t.Pos, label), Name: name.Text, Init: init}, nil

	case TokCobegin:
		ps.next()
		var arms []*Block
		first, err := ps.parseBlock()
		if err != nil {
			return nil, err
		}
		arms = append(arms, first)
		for ps.accept(TokParallel) {
			arm, err := ps.parseBlock()
			if err != nil {
				return nil, err
			}
			arms = append(arms, arm)
		}
		if _, err := ps.expect(TokCoend); err != nil {
			return nil, err
		}
		ps.accept(TokSemi) // optional
		if len(arms) < 2 {
			return nil, ps.errf(t.Pos, "cobegin needs at least two arms separated by '||'")
		}
		return &CobeginStmt{stmtBase: ps.stmtBase(t.Pos, label), Arms: arms}, nil

	case TokIf:
		ps.next()
		cond, err := ps.parseExpr()
		if err != nil {
			return nil, err
		}
		then, err := ps.parseBlock()
		if err != nil {
			return nil, err
		}
		st := &IfStmt{stmtBase: ps.stmtBase(t.Pos, label), Cond: cond, Then: then}
		if ps.accept(TokElse) {
			if ps.peekKind(TokIf) {
				// else-if chains: wrap the nested if in a synthetic block.
				nested, err := ps.parseStmt()
				if err != nil {
					return nil, err
				}
				blk := &Block{ID: ps.prog.newID(), Pos: nested.NodePos(), Stmts: []Stmt{nested}}
				ps.prog.register(blk)
				st.Else = blk
			} else {
				st.Else, err = ps.parseBlock()
				if err != nil {
					return nil, err
				}
			}
		}
		return st, nil

	case TokWhile:
		ps.next()
		cond, err := ps.parseExpr()
		if err != nil {
			return nil, err
		}
		body, err := ps.parseBlock()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{stmtBase: ps.stmtBase(t.Pos, label), Cond: cond, Body: body}, nil

	case TokReturn:
		ps.next()
		st := &ReturnStmt{stmtBase: ps.stmtBase(t.Pos, label)}
		if !ps.peekKind(TokSemi) {
			v, err := ps.parseExpr()
			if err != nil {
				return nil, err
			}
			st.Value = v
		}
		if _, err := ps.expect(TokSemi); err != nil {
			return nil, err
		}
		return st, nil

	case TokSkip:
		ps.next()
		if _, err := ps.expect(TokSemi); err != nil {
			return nil, err
		}
		return &SkipStmt{stmtBase: ps.stmtBase(t.Pos, label)}, nil

	case TokAssert:
		ps.next()
		cond, err := ps.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := ps.expect(TokSemi); err != nil {
			return nil, err
		}
		return &AssertStmt{stmtBase: ps.stmtBase(t.Pos, label), Cond: cond}, nil

	case TokFree:
		ps.next()
		if _, err := ps.expect(TokLParen); err != nil {
			return nil, err
		}
		ptr, err := ps.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := ps.expect(TokRParen); err != nil {
			return nil, err
		}
		if _, err := ps.expect(TokSemi); err != nil {
			return nil, err
		}
		return &FreeStmt{stmtBase: ps.stmtBase(t.Pos, label), Ptr: ptr}, nil
	}

	// Assignment or expression (call) statement.
	lhs, err := ps.parseExpr()
	if err != nil {
		return nil, err
	}
	if ps.accept(TokAssign) {
		switch lhs.(type) {
		case *VarRef, *DerefExpr:
			// ok
		default:
			return nil, ps.errf(lhs.NodePos(), "assignment target must be a variable or '*expr'")
		}
		rhs, err := ps.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := ps.expect(TokSemi); err != nil {
			return nil, err
		}
		return &AssignStmt{stmtBase: ps.stmtBase(t.Pos, label), Target: lhs, Value: rhs}, nil
	}
	if _, err := ps.expect(TokSemi); err != nil {
		return nil, err
	}
	call, ok := lhs.(*CallExpr)
	if !ok {
		return nil, ps.errf(lhs.NodePos(), "expression statement must be a call")
	}
	return &CallStmt{stmtBase: ps.stmtBase(t.Pos, label), Call: call}, nil
}

// Expression parsing: precedence climbing.
//
//	or:   and ("||" and)*
//	and:  cmp ("&&" cmp)*
//	cmp:  add (relop add)?
//	add:  mul (("+"|"-") mul)*
//	mul:  unary (("*"|"/"|"%") unary)*
//	unary: ("-"|"!"|"*"|"&") unary | postfix
//	postfix: primary ("(" args ")")*
func (ps *parser) parseExpr() (Expr, error) { return ps.parseOr() }

func (ps *parser) exprBase(pos Pos) exprBase {
	return exprBase{ID: ps.prog.newID(), Pos: pos}
}

func (ps *parser) parseOr() (Expr, error) {
	x, err := ps.parseAnd()
	if err != nil {
		return nil, err
	}
	for ps.peekKind(TokParallel) {
		op := ps.next()
		y, err := ps.parseAnd()
		if err != nil {
			return nil, err
		}
		e := &BinaryExpr{exprBase: ps.exprBase(op.Pos), Op: TokParallel, X: x, Y: y}
		ps.prog.register(e)
		x = e
	}
	return x, nil
}

func (ps *parser) parseAnd() (Expr, error) {
	x, err := ps.parseCmp()
	if err != nil {
		return nil, err
	}
	for ps.peekKind(TokAnd) {
		op := ps.next()
		y, err := ps.parseCmp()
		if err != nil {
			return nil, err
		}
		e := &BinaryExpr{exprBase: ps.exprBase(op.Pos), Op: TokAnd, X: x, Y: y}
		ps.prog.register(e)
		x = e
	}
	return x, nil
}

func (ps *parser) parseCmp() (Expr, error) {
	x, err := ps.parseAdd()
	if err != nil {
		return nil, err
	}
	switch ps.cur().Kind {
	case TokEq, TokNe, TokLt, TokLe, TokGt, TokGe:
		op := ps.next()
		y, err := ps.parseAdd()
		if err != nil {
			return nil, err
		}
		e := &BinaryExpr{exprBase: ps.exprBase(op.Pos), Op: op.Kind, X: x, Y: y}
		ps.prog.register(e)
		return e, nil
	}
	return x, nil
}

func (ps *parser) parseAdd() (Expr, error) {
	x, err := ps.parseMul()
	if err != nil {
		return nil, err
	}
	for ps.peekKind(TokPlus) || ps.peekKind(TokMinus) {
		op := ps.next()
		y, err := ps.parseMul()
		if err != nil {
			return nil, err
		}
		e := &BinaryExpr{exprBase: ps.exprBase(op.Pos), Op: op.Kind, X: x, Y: y}
		ps.prog.register(e)
		x = e
	}
	return x, nil
}

func (ps *parser) parseMul() (Expr, error) {
	x, err := ps.parseUnary()
	if err != nil {
		return nil, err
	}
	for ps.peekKind(TokStar) || ps.peekKind(TokSlash) || ps.peekKind(TokPercent) {
		op := ps.next()
		y, err := ps.parseUnary()
		if err != nil {
			return nil, err
		}
		e := &BinaryExpr{exprBase: ps.exprBase(op.Pos), Op: op.Kind, X: x, Y: y}
		ps.prog.register(e)
		x = e
	}
	return x, nil
}

func (ps *parser) parseUnary() (Expr, error) {
	t := ps.cur()
	switch t.Kind {
	case TokMinus, TokNot:
		ps.next()
		x, err := ps.parseUnary()
		if err != nil {
			return nil, err
		}
		e := &UnaryExpr{exprBase: ps.exprBase(t.Pos), Op: t.Kind, X: x}
		ps.prog.register(e)
		return e, nil
	case TokStar:
		ps.next()
		x, err := ps.parseUnary()
		if err != nil {
			return nil, err
		}
		e := &DerefExpr{exprBase: ps.exprBase(t.Pos), Ptr: x}
		ps.prog.register(e)
		return e, nil
	case TokAmp:
		ps.next()
		name, err := ps.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		e := &AddrExpr{exprBase: ps.exprBase(t.Pos), Name: name.Text}
		ps.prog.register(e)
		return e, nil
	}
	return ps.parsePostfix()
}

func (ps *parser) parsePostfix() (Expr, error) {
	x, err := ps.parsePrimary()
	if err != nil {
		return nil, err
	}
	for ps.peekKind(TokLParen) {
		lp := ps.next()
		call := &CallExpr{exprBase: ps.exprBase(lp.Pos), Callee: x}
		if !ps.peekKind(TokRParen) {
			for {
				a, err := ps.parseExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
				if !ps.accept(TokComma) {
					break
				}
			}
		}
		if _, err := ps.expect(TokRParen); err != nil {
			return nil, err
		}
		ps.prog.register(call)
		x = call
	}
	return x, nil
}

func (ps *parser) parsePrimary() (Expr, error) {
	t := ps.cur()
	switch t.Kind {
	case TokInt:
		ps.next()
		e := &IntLit{exprBase: ps.exprBase(t.Pos), Value: t.Int}
		ps.prog.register(e)
		return e, nil
	case TokIdent:
		ps.next()
		e := &VarRef{exprBase: ps.exprBase(t.Pos), Name: t.Text}
		ps.prog.register(e)
		return e, nil
	case TokLParen:
		ps.next()
		x, err := ps.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := ps.expect(TokRParen); err != nil {
			return nil, err
		}
		return x, nil
	case TokMalloc:
		ps.next()
		if _, err := ps.expect(TokLParen); err != nil {
			return nil, err
		}
		count, err := ps.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := ps.expect(TokRParen); err != nil {
			return nil, err
		}
		e := &MallocExpr{exprBase: ps.exprBase(t.Pos), Count: count}
		ps.prog.register(e)
		return e, nil
	}
	return nil, ps.errf(t.Pos, "expected expression, found %s", t)
}
