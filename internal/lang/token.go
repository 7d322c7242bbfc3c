// Package lang implements the front end for the cobegin language analyzed
// by the framework: a small C-style language with global shared variables,
// procedures (first-class), dynamic allocation, pointers, and (possibly
// nested) cobegin/coend parallelism, as described in Chow & Harrison
// (ICPP 1992) and formalized in [CH92].
package lang

import "fmt"

// TokKind enumerates lexical token kinds.
type TokKind int

// Token kinds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokInt

	// Keywords.
	TokVar
	TokFunc
	TokCobegin
	TokCoend
	TokIf
	TokElse
	TokWhile
	TokReturn
	TokSkip
	TokAssert
	TokMalloc
	TokFree

	// Punctuation and operators.
	TokLParen
	TokRParen
	TokLBrace
	TokRBrace
	TokSemi
	TokComma
	TokColon
	TokAssign
	TokParallel // "||" separating cobegin arms; also logical-or in expressions
	TokAnd      // "&&"
	TokEq
	TokNe
	TokLt
	TokLe
	TokGt
	TokGe
	TokPlus
	TokMinus
	TokStar
	TokSlash
	TokPercent
	TokNot
	TokAmp
)

var tokNames = map[TokKind]string{
	TokEOF:      "EOF",
	TokIdent:    "identifier",
	TokInt:      "integer",
	TokVar:      "var",
	TokFunc:     "func",
	TokCobegin:  "cobegin",
	TokCoend:    "coend",
	TokIf:       "if",
	TokElse:     "else",
	TokWhile:    "while",
	TokReturn:   "return",
	TokSkip:     "skip",
	TokAssert:   "assert",
	TokMalloc:   "malloc",
	TokFree:     "free",
	TokLParen:   "(",
	TokRParen:   ")",
	TokLBrace:   "{",
	TokRBrace:   "}",
	TokSemi:     ";",
	TokComma:    ",",
	TokColon:    ":",
	TokAssign:   "=",
	TokParallel: "||",
	TokAnd:      "&&",
	TokEq:       "==",
	TokNe:       "!=",
	TokLt:       "<",
	TokLe:       "<=",
	TokGt:       ">",
	TokGe:       ">=",
	TokPlus:     "+",
	TokMinus:    "-",
	TokStar:     "*",
	TokSlash:    "/",
	TokPercent:  "%",
	TokNot:      "!",
	TokAmp:      "&",
}

// String returns the printable name of the token kind.
func (k TokKind) String() string {
	if s, ok := tokNames[k]; ok {
		return s
	}
	return fmt.Sprintf("TokKind(%d)", int(k))
}

var keywords = map[string]TokKind{
	"var":     TokVar,
	"func":    TokFunc,
	"cobegin": TokCobegin,
	"coend":   TokCoend,
	"if":      TokIf,
	"else":    TokElse,
	"while":   TokWhile,
	"return":  TokReturn,
	"skip":    TokSkip,
	"assert":  TokAssert,
	"malloc":  TokMalloc,
	"free":    TokFree,
}

// Pos is a source position (1-based line and column).
type Pos struct {
	Line int
	Col  int
}

// String renders the position as "line:col".
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// IsValid reports whether the position has been set.
func (p Pos) IsValid() bool { return p.Line > 0 }

// An Error reports a lexical, syntax, name-resolution or static-validation
// error at its source position.
type Error struct {
	Pos Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Token is a lexical token with its position and payload.
type Token struct {
	Kind TokKind
	Pos  Pos
	Text string // identifier text
	Int  int64  // integer value for TokInt
}

// String renders the token for diagnostics.
func (t Token) String() string {
	switch t.Kind {
	case TokIdent:
		return fmt.Sprintf("identifier %q", t.Text)
	case TokInt:
		return fmt.Sprintf("integer %d", t.Int)
	default:
		return fmt.Sprintf("%q", t.Kind.String())
	}
}
