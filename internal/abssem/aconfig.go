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

// clone copies the configuration structure (frames deep, values shared).
func (c *AConfig) clone() *AConfig {
	nc := &AConfig{Store: c.Store, MayError: c.MayError}
	nc.Procs = make([]*AProc, len(c.Procs))
	for i, p := range c.Procs {
		nc.Procs[i] = p
	}
	return nc
}

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
		for j, f := range p.Frames {
			g := q.Frames[j]
			for k := range f.Locals {
				nv := jv(f.Locals[k], g.Locals[k])
				if !nv.Eq(f.Locals[k]) {
					f.Locals[k] = nv
					changed = true
				}
			}
			if f.Pending != nil && g.Pending != nil {
				nv := jv(f.Pending.val, g.Pending.val)
				if !nv.Eq(f.Pending.val) {
					f.Pending.val = nv
					changed = true
				}
				if mergeDest(&f.Pending.dest, g.Pending.dest) {
					changed = true
				}
			}
			if mergeDest(&f.Dest, g.Dest) {
				changed = true
			}
		}
	}
	var ns *absdom.Store
	if widen {
		ns = dst.Store.Widen(src.Store)
	} else {
		ns = dst.Store.Join(src.Store)
	}
	if !ns.Eq(dst.Store) {
		dst.Store = ns
		changed = true
	}
	if src.MayError && !dst.MayError {
		dst.MayError = true
		changed = true
	}
	return changed
}

// mergeDest unions target sets of two dests with the same kind.
func mergeDest(d *aDest, o aDest) bool {
	if d.kind != destTargets {
		return false
	}
	changed := false
	if o.all && !d.all {
		d.all = true
		return true
	}
	for _, t := range o.ts {
		found := false
		for _, u := range d.ts {
			if u == t {
				found = true
				break
			}
		}
		if !found {
			d.ts = append(d.ts, t)
			changed = true
		}
	}
	if changed {
		sort.Slice(d.ts, func(i, j int) bool { return d.ts[i].String() < d.ts[j].String() })
	}
	return changed
}

// deepCopyValues returns a full private copy of the configuration so a
// stored state can never alias a working one.
func (c *AConfig) deepCopy() *AConfig {
	nc := &AConfig{Store: c.Store, MayError: c.MayError}
	nc.Procs = make([]*AProc, len(c.Procs))
	for i := range c.Procs {
		nc.Procs[i] = c.Procs[i]
		cloneProcIn(nc, i)
	}
	return nc
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
