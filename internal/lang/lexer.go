package lang

import (
	"fmt"
	"strconv"
)

// Lexer turns source text into tokens. Comments are //-to-end-of-line and
// /* ... */ blocks.
type Lexer struct {
	src  string
	off  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Lex returns all tokens in src, ending with a TokEOF token.
func Lex(src string) ([]Token, error) {
	lx := NewLexer(src)
	var toks []Token
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
	}
}

func (lx *Lexer) peek() byte {
	if lx.off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off]
}

func (lx *Lexer) peek2() byte {
	if lx.off+1 >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off+1]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.off]
	lx.off++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func (lx *Lexer) pos() Pos { return Pos{Line: lx.line, Col: lx.col} }

func (lx *Lexer) skipSpaceAndComments() error {
	for lx.off < len(lx.src) {
		c := lx.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '/' && lx.peek2() == '/':
			for lx.off < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		case c == '/' && lx.peek2() == '*':
			start := lx.pos()
			lx.advance()
			lx.advance()
			closed := false
			for lx.off < len(lx.src) {
				if lx.peek() == '*' && lx.peek2() == '/' {
					lx.advance()
					lx.advance()
					closed = true
					break
				}
				lx.advance()
			}
			if !closed {
				return &Error{Pos: start, Msg: "unterminated block comment"}
			}
		default:
			return nil
		}
	}
	return nil
}

func isLetter(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// Next returns the next token.
func (lx *Lexer) Next() (Token, error) {
	if err := lx.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	pos := lx.pos()
	if lx.off >= len(lx.src) {
		return Token{Kind: TokEOF, Pos: pos}, nil
	}
	c := lx.peek()
	switch {
	case isLetter(c):
		start := lx.off
		for lx.off < len(lx.src) && (isLetter(lx.peek()) || isDigit(lx.peek())) {
			lx.advance()
		}
		text := lx.src[start:lx.off]
		if kw, ok := keywords[text]; ok {
			return Token{Kind: kw, Pos: pos, Text: text}, nil
		}
		return Token{Kind: TokIdent, Pos: pos, Text: text}, nil
	case isDigit(c):
		start := lx.off
		for lx.off < len(lx.src) && isDigit(lx.peek()) {
			lx.advance()
		}
		text := lx.src[start:lx.off]
		n, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return Token{}, &Error{Pos: pos, Msg: fmt.Sprintf("bad integer literal %q", text)}
		}
		return Token{Kind: TokInt, Pos: pos, Int: n}, nil
	}
	one := func(k TokKind) (Token, error) {
		lx.advance()
		return Token{Kind: k, Pos: pos}, nil
	}
	two := func(k TokKind) (Token, error) {
		lx.advance()
		lx.advance()
		return Token{Kind: k, Pos: pos}, nil
	}
	switch c {
	case '(':
		return one(TokLParen)
	case ')':
		return one(TokRParen)
	case '{':
		return one(TokLBrace)
	case '}':
		return one(TokRBrace)
	case ';':
		return one(TokSemi)
	case ',':
		return one(TokComma)
	case ':':
		return one(TokColon)
	case '+':
		return one(TokPlus)
	case '-':
		return one(TokMinus)
	case '*':
		return one(TokStar)
	case '/':
		return one(TokSlash)
	case '%':
		return one(TokPercent)
	case '=':
		if lx.peek2() == '=' {
			return two(TokEq)
		}
		return one(TokAssign)
	case '!':
		if lx.peek2() == '=' {
			return two(TokNe)
		}
		return one(TokNot)
	case '<':
		if lx.peek2() == '=' {
			return two(TokLe)
		}
		return one(TokLt)
	case '>':
		if lx.peek2() == '=' {
			return two(TokGe)
		}
		return one(TokGt)
	case '|':
		if lx.peek2() == '|' {
			return two(TokParallel)
		}
		return Token{}, &Error{Pos: pos, Msg: "single '|' is not an operator (did you mean '||'?)"}
	case '&':
		if lx.peek2() == '&' {
			return two(TokAnd)
		}
		return one(TokAmp)
	}
	return Token{}, &Error{Pos: pos, Msg: fmt.Sprintf("unexpected character %q", string(c))}
}
