package lang

import (
	"strings"
	"testing"
)

const tinyProgram = `
var A;
var B = 3;

func main() {
  s1: A = 1;
  s2: B = A + 2;
}
`

func TestParseTiny(t *testing.T) {
	p, err := Parse(tinyProgram)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Globals) != 2 {
		t.Fatalf("got %d globals, want 2", len(p.Globals))
	}
	if p.Globals[1].Init != 3 {
		t.Errorf("B init = %d, want 3", p.Globals[1].Init)
	}
	if p.Func("main") == nil {
		t.Fatal("main not found")
	}
	if got := len(p.Func("main").Body.Stmts); got != 2 {
		t.Fatalf("main has %d statements, want 2", got)
	}
}

func TestParseNegativeGlobalInit(t *testing.T) {
	p := MustParse("var A = -7;\nfunc main() { skip; }")
	if p.Globals[0].Init != -7 {
		t.Errorf("init = %d, want -7", p.Globals[0].Init)
	}
}

func TestParseCobegin(t *testing.T) {
	p := MustParse(`
var x;
func main() {
  cobegin { x = 1; } || { x = 2; } || { skip; } coend
}
`)
	cb, ok := p.Func("main").Body.Stmts[0].(*CobeginStmt)
	if !ok {
		t.Fatalf("statement is %T, want *CobeginStmt", p.Func("main").Body.Stmts[0])
	}
	if len(cb.Arms) != 3 {
		t.Errorf("got %d arms, want 3", len(cb.Arms))
	}
}

func TestParseNestedCobegin(t *testing.T) {
	p := MustParse(`
var x;
func main() {
  cobegin {
    cobegin { x = 1; } || { x = 2; } coend
  } || { x = 3; } coend
}
`)
	outer := p.Func("main").Body.Stmts[0].(*CobeginStmt)
	if _, ok := outer.Arms[0].Stmts[0].(*CobeginStmt); !ok {
		t.Errorf("inner statement is %T, want *CobeginStmt", outer.Arms[0].Stmts[0])
	}
}

func TestParseLabels(t *testing.T) {
	p := MustParse(`
var y;
func main() {
  here: y = 1;
}
`)
	s := p.StmtByLabel("here")
	if s == nil {
		t.Fatal("label 'here' not found")
	}
	if _, ok := s.(*AssignStmt); !ok {
		t.Errorf("labeled statement is %T, want *AssignStmt", s)
	}
}

func TestParsePointers(t *testing.T) {
	p := MustParse(`
var g;
func main() {
  var p = malloc(2);
  *p = 10;
  var q = &g;
  var v = *q + *p;
  assert v == 10;
}
`)
	body := p.Func("main").Body.Stmts
	if _, ok := body[0].(*VarStmt).Init.(*MallocExpr); !ok {
		t.Errorf("init is %T, want *MallocExpr", body[0].(*VarStmt).Init)
	}
	as := body[1].(*AssignStmt)
	if _, ok := as.Target.(*DerefExpr); !ok {
		t.Errorf("target is %T, want *DerefExpr", as.Target)
	}
	if _, ok := body[2].(*VarStmt).Init.(*AddrExpr); !ok {
		t.Errorf("init is %T, want *AddrExpr", body[2].(*VarStmt).Init)
	}
}

func TestParsePrecedence(t *testing.T) {
	p := MustParse(`
var a; var b; var c;
func main() {
  a = 1 + 2 * 3;
  b = (1 + 2) * 3;
  c = a < b && b < 10 || a == 0;
}
`)
	s0 := p.Func("main").Body.Stmts[0].(*AssignStmt).Value.(*BinaryExpr)
	if s0.Op != TokPlus {
		t.Errorf("top op = %v, want +", s0.Op)
	}
	if inner := s0.Y.(*BinaryExpr); inner.Op != TokStar {
		t.Errorf("rhs op = %v, want *", inner.Op)
	}
	s1 := p.Func("main").Body.Stmts[1].(*AssignStmt).Value.(*BinaryExpr)
	if s1.Op != TokStar {
		t.Errorf("top op = %v, want *", s1.Op)
	}
	s2 := p.Func("main").Body.Stmts[2].(*AssignStmt).Value.(*BinaryExpr)
	if s2.Op != TokParallel {
		t.Errorf("top op = %v, want ||", s2.Op)
	}
}

func TestParseIfElseChain(t *testing.T) {
	p := MustParse(`
var a;
func main() {
  if a == 0 { a = 1; } else if a == 1 { a = 2; } else { a = 3; }
}
`)
	ifs := p.Func("main").Body.Stmts[0].(*IfStmt)
	if ifs.Else == nil || len(ifs.Else.Stmts) != 1 {
		t.Fatal("else-if chain not parsed")
	}
	if _, ok := ifs.Else.Stmts[0].(*IfStmt); !ok {
		t.Errorf("else content is %T, want *IfStmt", ifs.Else.Stmts[0])
	}
}

func TestParseWhileAndCalls(t *testing.T) {
	p := MustParse(`
var n = 5;
var r;
func fact(k) {
  if k <= 1 { return 1; }
  var sub = fact(k - 1);
  return k * sub;
}
func main() {
  r = fact(n);
  while r > 0 { r = r - 1; }
}
`)
	if p.Func("fact") == nil {
		t.Fatal("fact not found")
	}
	if got := len(p.Func("fact").Params); got != 1 {
		t.Errorf("fact has %d params, want 1", got)
	}
}

func TestParseFirstClassFunctions(t *testing.T) {
	p := MustParse(`
var r;
func inc(x) { return x + 1; }
func apply(f, v) { var out = f(v); return out; }
func main() { r = apply(inc, 41); }
`)
	call := p.Func("apply").Body.Stmts[0].(*VarStmt).Init.(*CallExpr)
	v := call.Callee.(*VarRef)
	if v.Kind != RefLocal {
		t.Errorf("callee kind = %v, want local (param f)", v.Kind)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"missing semi", "var a;\nfunc main() { a = 1 }", "expected"},
		{"one-arm cobegin", "var a;\nfunc main() { cobegin { a = 1; } coend }", "at least two arms"},
		{"bad target", "var a;\nfunc main() { 1 = a; }", "assignment target"},
		{"expr stmt not call", "var a;\nfunc main() { a + 1; }", "must be a call"},
		{"top level junk", "skip;", "expected top-level"},
		{"unterminated block", "func main() { skip;", "unterminated block"},
		{"missing main", "var a;", "no 'main'"},
		{"main with params", "func main(x) { skip; }", "must take no parameters"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil {
				t.Fatalf("expected error containing %q", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not contain %q", err, c.want)
			}
		})
	}
}

func TestParseErrorPositions(t *testing.T) {
	_, err := Parse("var a;\nfunc main() {\n  1 = a;\n}")
	if err == nil {
		t.Fatal("expected error")
	}
	pe, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T, want *Error", err)
	}
	if pe.Pos.Line != 3 {
		t.Errorf("error at line %d, want 3", pe.Pos.Line)
	}
}

func TestNodeIDsDenseAndRegistered(t *testing.T) {
	p := MustParse(tinyProgram)
	seen := 0
	for id := NodeID(1); id < NodeID(p.NumNodes())+1; id++ {
		if p.Node(id) != nil {
			seen++
		}
	}
	if seen == 0 {
		t.Fatal("no nodes registered")
	}
	// Every registered node reports its own ID.
	for id := NodeID(1); id < NodeID(p.NumNodes())+1; id++ {
		if n := p.Node(id); n != nil && n.NodeID() != id {
			t.Errorf("node %d reports ID %d", id, n.NodeID())
		}
	}
}
