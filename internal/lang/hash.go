package lang

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
)

// This file defines the canonical, position-independent program hashes
// the result cache (internal/pipeline) keys abstract runs on: two
// submissions with equal hashes are the same analysis input, so a
// previous result can be replayed for the second one.
//
// Two hash modes exist per procedure:
//
//   - the α-renamed hash ("alpha") identifies bodies up to renaming of
//     params and locals: locals are rendered by their resolver-assigned
//     frame slot, so "var a = 1; g = a" and "var b = 1; g = b" hash
//     equal. Globals and procedures are rendered by name (renaming those
//     is a semantic change: it rebinds references program-wide).
//   - the name-sensitive hash ("named") additionally folds in declared
//     parameter and local names. Clan folding (§6.2) groups cobegin arms
//     by their rendered TEXT, which includes local names, so analyses run
//     with ClanFold must key on the named mode.
//
// Statement labels are excluded from BOTH modes: no engine result depends
// on them (they only name statements for queries), so a label edit is a
// no-op edit.

// ProgramHashes carries every canonical digest of one resolved program.
// Slices are indexed by FuncDecl.Index.
type ProgramHashes struct {
	// Alpha and Named are the per-procedure body hashes in the two modes
	// (see the file comment).
	Alpha []string
	Named []string
	// GlobalsDigest covers the global declarations: names, initializers,
	// and order (global indices embed in analysis artifacts, so order
	// matters).
	GlobalsDigest string
	// FuncNamesDigest covers the procedure name list in declaration order
	// (function indices embed in analysis artifacts too).
	FuncNamesDigest string

	progAlpha string
	progNamed string
}

// ProgramHash returns the whole-program digest in the requested mode: it
// covers the globals section, the procedure list, and every body, so two
// programs with equal hashes are α-equivalent (named == false) or
// identical up to labels and formatting (named == true).
func (h *ProgramHashes) ProgramHash(named bool) string {
	if named {
		return h.progNamed
	}
	return h.progAlpha
}

// HashProgram computes every canonical digest of a resolved program.
func HashProgram(p *Program) *ProgramHashes {
	n := len(p.Funcs)
	h := &ProgramHashes{
		Alpha: make([]string, n),
		Named: make([]string, n),
	}
	hw := &hashWriter{}
	for i, f := range p.Funcs {
		hw.reset()
		hw.fn(f)
		h.Alpha[i], h.Named[i] = hw.sums()
	}

	var buf []byte
	for _, g := range p.Globals {
		buf = append(buf, g.Name...)
		buf = append(buf, '=')
		buf = strconv.AppendInt(buf, g.Init, 10)
		buf = append(buf, ';')
	}
	h.GlobalsDigest = digest(buf)
	buf = buf[:0]
	for _, f := range p.Funcs {
		buf = append(buf, f.Name...)
		buf = append(buf, '/')
		buf = strconv.AppendInt(buf, int64(len(f.Params)), 10)
		buf = append(buf, ';')
	}
	h.FuncNamesDigest = digest(buf)

	ph := func(local []string) string {
		buf = append(buf[:0], "prog|"...)
		buf = append(buf, h.GlobalsDigest...)
		buf = append(buf, '|')
		buf = append(buf, h.FuncNamesDigest...)
		for i, f := range p.Funcs {
			buf = append(buf, '|')
			buf = append(buf, f.Name...)
			buf = append(buf, ':')
			buf = append(buf, local[i]...)
		}
		return digest(buf)
	}
	h.progAlpha = ph(h.Alpha)
	h.progNamed = ph(h.Named)
	return h
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

// hashWriter accumulates one procedure's canonical rendering for the two
// hash modes: structural tokens go to both buffers, declared names only
// to the name-sensitive one. Buffering the rendering and hashing once in
// sums keeps the hot path (HashProgram runs on every service
// submission) free of per-token hash.Write calls and conversions.
type hashWriter struct {
	alpha []byte
	named []byte
}

func (w *hashWriter) reset() {
	w.alpha = w.alpha[:0]
	w.named = w.named[:0]
}

func (w *hashWriter) sums() (alpha, named string) {
	return digest(w.alpha), digest(w.named)
}

func (w *hashWriter) emit(s string) {
	w.alpha = append(w.alpha, s...)
	w.named = append(w.named, s...)
}

func (w *hashWriter) emitNamed(s string) {
	w.named = append(w.named, s...)
}

func (w *hashWriter) fn(f *FuncDecl) {
	w.emit("func/" + strconv.Itoa(len(f.Params)))
	for _, p := range f.Params {
		w.emitNamed("," + p)
	}
	w.block(f.Body)
}

func (w *hashWriter) block(b *Block) {
	if b == nil {
		w.emit("∅")
		return
	}
	w.emit("{")
	for _, s := range b.Stmts {
		w.stmt(s)
	}
	w.emit("}")
}

func (w *hashWriter) stmt(s Stmt) {
	// Labels are deliberately NOT emitted; see the file comment.
	switch s := s.(type) {
	case *VarStmt:
		w.emit("var/" + strconv.Itoa(s.Slot) + "=")
		w.emitNamed("n:" + s.Name)
		w.expr(s.Init)
	case *AssignStmt:
		w.emit("asn:")
		w.expr(s.Target)
		w.emit("=")
		w.expr(s.Value)
	case *CallStmt:
		w.emit("cst:")
		w.expr(s.Call)
	case *CobeginStmt:
		w.emit("cobegin/" + strconv.Itoa(len(s.Arms)))
		for _, arm := range s.Arms {
			w.block(arm)
		}
		w.emit("coend")
	case *IfStmt:
		w.emit("if:")
		w.expr(s.Cond)
		w.block(s.Then)
		if s.Else != nil {
			w.emit("else")
			w.block(s.Else)
		}
	case *WhileStmt:
		w.emit("while:")
		w.expr(s.Cond)
		w.block(s.Body)
	case *ReturnStmt:
		if s.Value != nil {
			w.emit("ret:")
			w.expr(s.Value)
		} else {
			w.emit("ret")
		}
	case *SkipStmt:
		w.emit("skip")
	case *AssertStmt:
		w.emit("assert:")
		w.expr(s.Cond)
	case *FreeStmt:
		w.emit("free:")
		w.expr(s.Ptr)
	default:
		w.emit("?stmt")
	}
	w.emit(";")
}

func (w *hashWriter) expr(e Expr) {
	switch e := e.(type) {
	case nil:
		w.emit("∅")
	case *IntLit:
		w.emit("i" + strconv.FormatInt(e.Value, 10))
	case *VarRef:
		switch e.Kind {
		case RefLocal:
			// α-mode identity is the resolver slot, which is assigned in
			// declaration order and never reused, so it is independent of
			// the chosen names.
			w.emit("l" + strconv.Itoa(e.Index))
			w.emitNamed(":" + e.Name)
		case RefGlobal:
			w.emit("g:" + e.Name)
		case RefFunc:
			w.emit("f:" + e.Name)
		default:
			w.emit("?ref")
		}
	case *UnaryExpr:
		w.emit("u" + strconv.Itoa(int(e.Op)) + "(")
		w.expr(e.X)
		w.emit(")")
	case *DerefExpr:
		w.emit("*(")
		w.expr(e.Ptr)
		w.emit(")")
	case *AddrExpr:
		w.emit("&" + e.Name)
	case *BinaryExpr:
		w.emit("b" + strconv.Itoa(int(e.Op)) + "(")
		w.expr(e.X)
		w.emit(",")
		w.expr(e.Y)
		w.emit(")")
	case *CallExpr:
		w.emit("c/" + strconv.Itoa(len(e.Args)) + "(")
		w.expr(e.Callee)
		for _, a := range e.Args {
			w.emit(",")
			w.expr(a)
		}
		w.emit(")")
	case *MallocExpr:
		w.emit("m(")
		w.expr(e.Count)
		w.emit(")")
	default:
		w.emit("?expr")
	}
}
