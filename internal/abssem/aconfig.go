// Package abssem is the abstract interpreter of the framework (paper §4,
// §6): the concrete interleaving semantics of package sem re-executed over
// the abstract domains of package absdom, with configuration folding.
//
// Folding follows §6.1: abstract configurations are identified by their
// CONTROL component only (the vector of process control points — Taylor's
// "concurrency states" [Tay83]); all value state (frame locals, pending
// writes, the shared store) reached under one control point is joined.
// Procedure strings are k-limited and instance-stripped, so heap objects
// fold into finitely many abstract locations. Optional clan folding
// (§6.2, McDowell's clans [McD89]) additionally merges cobegin arms that
// execute identical blocks.
package abssem

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"psa/internal/absdom"
	"psa/internal/lang"
	"psa/internal/pstring"
)

// blockPos mirrors sem's control positions.
type blockPos struct {
	block *lang.Block
	idx   int
}

// destKind mirrors sem's return destinations.
type destKind uint8

const (
	destNone destKind = iota
	destLocal
	destTargets
)

// aDest is where a value lands: nowhere, a local slot, or an abstract
// points-to set (globals and heap summaries). The target set is value
// state; its presence/kind is control state.
type aDest struct {
	kind destKind
	slot int
	ts   []absdom.Target
	all  bool
}

// aPending is the write phase of a split transition.
type aPending struct {
	dest aDest
	val  absdom.Value
	stmt lang.NodeID
	bump bool
}

// AFrame is an abstract activation.
type AFrame struct {
	Fn      *lang.FuncDecl
	Locals  []absdom.Value
	Blocks  []blockPos
	Dest    aDest
	Pending *aPending
	// hasEntry mirrors sem.Frame: whether a procedure-string symbol was
	// pushed for this frame.
	hasEntry bool
}

// Status mirrors sem.ProcStatus.
type Status uint8

// Process states.
const (
	Running Status = iota
	WaitJoin
	Done
)

// AProc is an abstract process.
type AProc struct {
	Path     string
	Status   Status
	Frames   []*AFrame
	Parent   string
	LiveKids int
	// PStr is the abstract procedure string (outermost first, no
	// instance numbers): thread entries and call entries.
	PStr []pstring.Sym
	// Clan is the number of concrete arm instances this process stands
	// for (1 normally; ≥2 under clan folding — "ω" in the abstraction).
	Clan int
	// ArmBlock/ArmFn/InitLocals remember how this arm started so an
	// ω-clan can respawn "a member that has not run yet" (§6.2: with
	// several tasks folded, it is unknown how many have reached a point).
	ArmBlock   *lang.Block
	ArmFn      *lang.FuncDecl
	InitLocals []absdom.Value
}

// AConfig is an abstract configuration: processes plus the abstract store.
type AConfig struct {
	Procs []*AProc // sorted by Path
	Store *absdom.Store
	// MayError accumulates "some folded execution may fault here".
	MayError bool
}

// ctrlSig is the Taylor fold key: the control skeleton of a configuration,
// excluding all lattice-valued state.
type ctrlSig string

// signature computes the fold key.
func (c *AConfig) signature() ctrlSig {
	var b strings.Builder
	for _, p := range c.Procs {
		b.WriteString(p.Path)
		b.WriteByte(':')
		b.WriteByte(byte('0' + p.Status))
		b.WriteString(strconv.Itoa(p.LiveKids))
		b.WriteByte('*')
		b.WriteString(strconv.Itoa(clanAbstract(p.Clan)))
		for _, f := range p.Frames {
			b.WriteString("|f")
			b.WriteString(strconv.Itoa(f.Fn.Index))
			b.WriteByte(',')
			b.WriteByte(byte('0' + f.Dest.kind))
			if f.Dest.kind == destLocal {
				b.WriteString(strconv.Itoa(f.Dest.slot))
			}
			for _, bp := range f.Blocks {
				b.WriteString(";")
				b.WriteString(strconv.Itoa(int(bp.block.NodeID())))
				b.WriteByte('.')
				b.WriteString(strconv.Itoa(bp.idx))
			}
			if f.Pending != nil {
				b.WriteString(";!")
				b.WriteString(strconv.Itoa(int(f.Pending.stmt)))
			}
		}
		b.WriteByte('\n')
	}
	return ctrlSig(b.String())
}

// clanAbstract folds concrete multiplicities into {0, 1, ω(=2)}.
func clanAbstract(n int) int {
	if n > 2 {
		return 2
	}
	return n
}

// clone copies the configuration shell: a new Procs slice whose
// processes are shared with c.
func (c *AConfig) clone() *AConfig {
	nc := &AConfig{Store: c.Store, MayError: c.MayError}
	nc.Procs = make([]*AProc, len(c.Procs))
	for i, p := range c.Procs {
		nc.Procs[i] = p
	}
	return nc
}

// cloneProcIn replaces process i of c with a private copy — frames,
// locals, control stack and pending write copied, arm data shared — and
// returns the copy, which the caller may then mutate.
func cloneProcIn(c *AConfig, i int) *AProc {
	p := c.Procs[i]
	np := &AProc{
		Path:       p.Path,
		Status:     p.Status,
		Parent:     p.Parent,
		LiveKids:   p.LiveKids,
		Clan:       p.Clan,
		ArmBlock:   p.ArmBlock,
		ArmFn:      p.ArmFn,
		InitLocals: p.InitLocals,
	}
	np.PStr = append([]pstring.Sym(nil), p.PStr...)
	np.Frames = make([]*AFrame, len(p.Frames))
	for j, f := range p.Frames {
		nf := &AFrame{Fn: f.Fn, Dest: f.Dest, hasEntry: f.hasEntry}
		nf.Locals = append([]absdom.Value(nil), f.Locals...)
		nf.Blocks = append([]blockPos(nil), f.Blocks...)
		if f.Pending != nil {
			pc := *f.Pending
			nf.Pending = &pc
		}
		np.Frames[j] = nf
	}
	c.Procs[i] = np
	return np
}

// joinInto joins the value state of src into dst (same control skeleton);
// reports whether dst changed. When widen is set, numeric components
// widen instead of joining.
//
// Every component is tested src ⊑ dst first and joined only when that
// fails. A join or widening of something not below dst is an upper bound
// that differs from dst, so the failed test alone decides "changed"; and
// when the test holds, a ⊔ b = a and a ∇ b = a (the widening law
// absdom's tests pin), so skipping the join leaves dst exactly as the
// join would. In a converging fixpoint most joins add nothing, and then
// joinInto allocates nothing.
//
// dst is a stored state, whose processes may be shared with other states
// (see aState), so a process is copied with cloneProcIn before its first
// write and the shared original is left as it was.
func (dst *AConfig) joinInto(src *AConfig, widen bool) bool {
	changed := false
	jv := func(a, b absdom.Value) absdom.Value {
		if widen {
			return a.Widen(b)
		}
		return a.Join(b)
	}
	for i, p := range dst.Procs {
		q := src.Procs[i]
		if p == q {
			continue // one shared process: nothing to join
		}
		var own *AProc // dst's private copy of p, made on the first write
		frame := func(j int) *AFrame {
			if own == nil {
				own = cloneProcIn(dst, i)
			}
			return own.Frames[j]
		}
		for j, f := range p.Frames {
			g := q.Frames[j]
			for k, v := range g.Locals {
				if !v.Leq(f.Locals[k]) {
					frame(j).Locals[k] = jv(f.Locals[k], v)
					changed = true
				}
			}
			if f.Pending != nil && g.Pending != nil {
				if !g.Pending.val.Leq(f.Pending.val) {
					frame(j).Pending.val = jv(f.Pending.val, g.Pending.val)
					changed = true
				}
				if d, ok := mergeDest(f.Pending.dest, g.Pending.dest); ok {
					frame(j).Pending.dest = d
					changed = true
				}
			}
			if d, ok := mergeDest(f.Dest, g.Dest); ok {
				frame(j).Dest = d
				changed = true
			}
		}
	}
	if !src.Store.Leq(dst.Store) {
		if widen {
			dst.Store = dst.Store.Widen(src.Store)
		} else {
			dst.Store = dst.Store.Join(src.Store)
		}
		changed = true
	}
	if src.MayError && !dst.MayError {
		dst.MayError = true
		changed = true
	}
	return changed
}

// mergeDest unions the target sets of two dests with the same kind and
// reports whether d grew. The grown dest gets a fresh target slice: d.ts
// may share its backing array with the dest of another frame (frame
// copies copy dests by value), so appending to it in place could
// overwrite a target that frame still holds.
func mergeDest(d, o aDest) (aDest, bool) {
	if d.kind != destTargets {
		return d, false
	}
	if o.all && !d.all {
		d.all = true
		return d, true
	}
	var ts []absdom.Target
	for _, t := range o.ts {
		if !slices.Contains(d.ts, t) && !slices.Contains(ts, t) {
			ts = append(ts, t)
		}
	}
	if ts == nil {
		return d, false
	}
	ts = append(ts, d.ts...)
	sort.Slice(ts, func(i, j int) bool { return ts[i].String() < ts[j].String() })
	d.ts = ts
	return d, true
}

func (c *AConfig) procIndex(path string) int {
	for i, p := range c.Procs {
		if p.Path == path {
			return i
		}
	}
	return -1
}

func (c *AConfig) insertSorted(p *AProc) {
	i := sort.Search(len(c.Procs), func(i int) bool { return c.Procs[i].Path >= p.Path })
	c.Procs = append(c.Procs, nil)
	copy(c.Procs[i+1:], c.Procs[i:])
	c.Procs[i] = p
}

func (c *AConfig) removeAt(i int) {
	c.Procs = append(c.Procs[:i:i], c.Procs[i+1:]...)
}

// nextStmt returns the next statement of p (nil when exhausted).
func nextStmt(p *AProc) lang.Stmt {
	if len(p.Frames) == 0 {
		return nil
	}
	f := p.Frames[len(p.Frames)-1]
	if len(f.Blocks) == 0 {
		return nil
	}
	bp := f.Blocks[len(f.Blocks)-1]
	if bp.idx >= len(bp.block.Stmts) {
		return nil
	}
	return bp.block.Stmts[bp.idx]
}

func hasPending(p *AProc) bool {
	return len(p.Frames) > 0 && p.Frames[len(p.Frames)-1].Pending != nil
}

// enabled returns the indices of processes with transitions.
func (c *AConfig) enabled() []int {
	var out []int
	for i, p := range c.Procs {
		if p.Status == Running && (hasPending(p) || nextStmt(p) != nil) {
			out = append(out, i)
		}
	}
	return out
}

// String renders the abstract configuration for diagnostics.
func (c *AConfig) String() string {
	var parts []string
	for _, p := range c.Procs {
		s := "-"
		if n := nextStmt(p); n != nil {
			s = lang.DescribeStmt(n)
		}
		parts = append(parts, fmt.Sprintf("%s@%s", p.Path, s))
	}
	return "⟨" + strings.Join(parts, " ") + "⟩ " + c.Store.String()
}
