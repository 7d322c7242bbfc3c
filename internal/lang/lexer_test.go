package lang

import (
	"strings"
	"testing"
)

func kindsOf(t *testing.T, src string) []TokKind {
	t.Helper()
	toks, err := Lex(src)
	if err != nil {
		t.Fatalf("Lex(%q): %v", src, err)
	}
	out := make([]TokKind, len(toks))
	for i, tok := range toks {
		out[i] = tok.Kind
	}
	return out
}

func TestLexKeywordsAndIdents(t *testing.T) {
	got := kindsOf(t, "var cobegin coend if else while return skip assert malloc free x _y z9 func")
	want := []TokKind{
		TokVar, TokCobegin, TokCoend, TokIf, TokElse, TokWhile, TokReturn,
		TokSkip, TokAssert, TokMalloc, TokFree, TokIdent, TokIdent, TokIdent,
		TokFunc, TokEOF,
	}
	if len(got) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestLexOperators(t *testing.T) {
	got := kindsOf(t, "( ) { } ; , : = || && == != < <= > >= + - * / % ! &")
	want := []TokKind{
		TokLParen, TokRParen, TokLBrace, TokRBrace, TokSemi, TokComma,
		TokColon, TokAssign, TokParallel, TokAnd, TokEq, TokNe, TokLt, TokLe,
		TokGt, TokGe, TokPlus, TokMinus, TokStar, TokSlash, TokPercent,
		TokNot, TokAmp, TokEOF,
	}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestLexIntegers(t *testing.T) {
	toks, err := Lex("0 42 987654321")
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{0, 42, 987654321}
	for i, w := range want {
		if toks[i].Kind != TokInt || toks[i].Int != w {
			t.Errorf("token %d: got %v, want integer %d", i, toks[i], w)
		}
	}
}

func TestLexComments(t *testing.T) {
	src := `
// line comment
x /* block
comment */ y
`
	got := kindsOf(t, src)
	want := []TokKind{TokIdent, TokIdent, TokEOF}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := Lex("a\n  b")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos != (Pos{Line: 1, Col: 1}) {
		t.Errorf("a at %v, want 1:1", toks[0].Pos)
	}
	if toks[1].Pos != (Pos{Line: 2, Col: 3}) {
		t.Errorf("b at %v, want 2:3", toks[1].Pos)
	}
}

func TestLexErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"@", "unexpected character"},
		{"a | b", "single '|'"},
		{"/* open", "unterminated block comment"},
		{"99999999999999999999", "bad integer"},
	}
	for _, c := range cases {
		_, err := Lex(c.src)
		if err == nil {
			t.Errorf("Lex(%q): expected error containing %q, got nil", c.src, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Lex(%q): error %q does not contain %q", c.src, err, c.want)
		}
	}
}

func TestLexErrorHasPosition(t *testing.T) {
	_, err := Lex("x\n  @")
	if err == nil {
		t.Fatal("expected error")
	}
	le, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T, want *Error", err)
	}
	if le.Pos != (Pos{Line: 2, Col: 3}) {
		t.Errorf("error at %v, want 2:3", le.Pos)
	}
}

func TestAmpersandSingleIsAddressOf(t *testing.T) {
	toks, err := Lex("&x && y")
	if err != nil {
		t.Fatal(err)
	}
	want := []TokKind{TokAmp, TokIdent, TokAnd, TokIdent, TokEOF}
	for i, w := range want {
		if toks[i].Kind != w {
			t.Errorf("token %d: got %v, want %v", i, toks[i].Kind, w)
		}
	}
}
