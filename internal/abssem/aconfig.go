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
func (c *AConfig) signature() ctrlSig { return ctrlSig(c.appendSignature(nil)) }

// appendSignature appends the fold key's bytes to b. Expansion writes
// every successor's key into one reused buffer and looks it up without
// making a string (see stateTable.get).
func (c *AConfig) appendSignature(b []byte) []byte {
	for _, p := range c.Procs {
		b = append(b, p.Path...)
		b = append(b, ':', byte('0'+p.Status))
		b = strconv.AppendInt(b, int64(p.LiveKids), 10)
		b = append(b, '*')
		b = strconv.AppendInt(b, int64(clanAbstract(p.Clan)), 10)
		for _, f := range p.Frames {
			b = append(b, "|f"...)
			b = strconv.AppendInt(b, int64(f.Fn.Index), 10)
			b = append(b, ',', byte('0'+f.Dest.kind))
			if f.Dest.kind == destLocal {
				b = strconv.AppendInt(b, int64(f.Dest.slot), 10)
			}
			for _, bp := range f.Blocks {
				b = append(b, ';')
				b = strconv.AppendInt(b, int64(bp.block.NodeID()), 10)
				b = append(b, '.')
				b = strconv.AppendInt(b, int64(bp.idx), 10)
			}
			if f.Pending != nil {
				b = append(b, ";!"...)
				b = strconv.AppendInt(b, int64(f.Pending.stmt), 10)
			}
		}
		b = append(b, '\n')
	}
	return b
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
func (c *AConfig) clone() *AConfig { return (*aScratch)(nil).shell(c) }

// cloneProcIn replaces process i of c with a private heap copy — frames,
// locals, control stack and pending write copied, arm data shared — and
// returns the copy, which the caller may then mutate.
func cloneProcIn(c *AConfig, i int) *AProc { return (*aScratch)(nil).copyProcIn(c, i) }

// joinInto joins the value state of src into dst (same control
// skeleton) and returns the configuration holding the join, or nil when
// nothing changed. When widen is set, numeric components widen instead
// of joining.
//
// Every component is tested src ⊑ dst first and joined only when that
// fails (see joinWalk). A join or widening of something not below dst is
// an upper bound that differs from dst, so the failed test alone decides
// "changed"; and when the test holds, a ⊔ b = a and a ∇ b = a (the
// widening law absdom's tests pin), so skipping the join leaves dst
// exactly as the join would. In a converging fixpoint most joins add
// nothing, and then joinInto allocates nothing; it returns nil exactly
// when dst.absorbs(src).
//
// dst is a stored state, whose processes may be shared with other states
// (see aState), so a process is copied with cloneProcIn before its first
// write and the shared original is left as it was. Without copyShell the
// join goes into dst itself and dst is returned. With copyShell, dst may
// be under a concurrent read and is never written: the first write
// copies dst's shell (its Procs slice, Store and MayError), the join goes
// into the copy, and the copy is returned.
func (dst *AConfig) joinInto(src *AConfig, widen, copyShell bool) *AConfig {
	j := joiner{dst: dst, widen: widen, copyShell: copyShell, ownAt: -1}
	dst.joinWalk(src, &j)
	return j.out
}

// absorbs reports src ⊑ dst (same control skeleton), with MayError part
// of the order: exactly the case in which dst.joinInto(src, …) changes
// nothing and returns nil, for either widen. It reads both
// configurations and writes neither, and allocates nothing.
func (dst *AConfig) absorbs(src *AConfig) bool { return dst.joinWalk(src, nil) }

// joinWalk is the one walk behind joinInto and absorbs. It visits src
// against dst in a fixed order — per process (skipping one process the
// two share), per frame its locals, pending value, pending dest and
// dest; then the store and MayError — and hands each component of src
// that is not below dst's to j, which joins it in. With j nil it stops at
// the first such component instead and reports false, so it reports
// true exactly when src ⊑ dst.
func (dst *AConfig) joinWalk(src *AConfig, j *joiner) bool {
	for i, p := range dst.Procs {
		q := src.Procs[i]
		if p == q {
			continue // one shared process: nothing to join
		}
		for k, f := range p.Frames {
			g := q.Frames[k]
			for l, v := range g.Locals {
				if !v.Leq(f.Locals[l]) {
					if j == nil {
						return false
					}
					j.frame(i, k).Locals[l] = j.join(f.Locals[l], v)
				}
			}
			if f.Pending != nil && g.Pending != nil {
				if !g.Pending.val.Leq(f.Pending.val) {
					if j == nil {
						return false
					}
					j.frame(i, k).Pending.val = j.join(f.Pending.val, g.Pending.val)
				}
				if !destBelow(g.Pending.dest, f.Pending.dest) {
					if j == nil {
						return false
					}
					j.frame(i, k).Pending.dest, _ = mergeDest(f.Pending.dest, g.Pending.dest)
				}
			}
			if !destBelow(g.Dest, f.Dest) {
				if j == nil {
					return false
				}
				j.frame(i, k).Dest, _ = mergeDest(f.Dest, g.Dest)
			}
		}
	}
	if !src.Store.Leq(dst.Store) {
		if j == nil {
			return false
		}
		if j.widen {
			j.shell().Store = dst.Store.Widen(src.Store)
		} else {
			j.shell().Store = dst.Store.Join(src.Store)
		}
	}
	if src.MayError && !dst.MayError {
		if j == nil {
			return false
		}
		j.shell().MayError = true
	}
	return true
}

// joiner is joinInto's side of joinWalk: the configuration written (out,
// made on the first write) and the copy of the process being written.
type joiner struct {
	dst, out         *AConfig
	widen, copyShell bool
	own              *AProc // out's private copy of process ownAt
	ownAt            int
}

func (j *joiner) shell() *AConfig {
	if j.out == nil {
		j.out = j.dst
		if j.copyShell {
			j.out = j.dst.clone()
		}
	}
	return j.out
}

// frame returns frame k of the written configuration's copy of process
// i, copying the process on its first write. joinWalk visits processes
// in order, so a process left behind is never written again.
func (j *joiner) frame(i, k int) *AFrame {
	if j.own == nil || j.ownAt != i {
		j.own, j.ownAt = cloneProcIn(j.shell(), i), i
	}
	return j.own.Frames[k]
}

func (j *joiner) join(a, b absdom.Value) absdom.Value {
	if j.widen {
		return a.Widen(b)
	}
	return a.Join(b)
}

// destBelow reports whether joining o into d (same kind) leaves d as it
// is: only target dests carry value state, and o's targets must already
// be d's (o's ⊤ flag only when d has it too).
func destBelow(o, d aDest) bool {
	if d.kind != destTargets {
		return true
	}
	if o.all && !d.all {
		return false
	}
	for _, t := range o.ts {
		if !slices.Contains(d.ts, t) {
			return false
		}
	}
	return true
}

// mergeDest joins o into d and reports whether d grew (exactly when
// !destBelow(o, d)): a ⊤ flag d lacks is added on its own, and otherwise
// o's new targets are, in target order. The grown dest gets a fresh target slice: d.ts may share its backing
// array with the dest of another frame (frame copies copy dests by
// value), so appending to it in place could overwrite a target that
// frame still holds.
func mergeDest(d, o aDest) (aDest, bool) {
	if destBelow(o, d) {
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
	ts = append(ts, d.ts...)
	d.ts = sortTargets(ts)
	return d, true
}

// sortTargets sorts ts by rendered name, formatting each target once
// rather than in every comparison.
func sortTargets(ts []absdom.Target) []absdom.Target {
	keyed := make([]struct {
		key string
		t   absdom.Target
	}, len(ts))
	for i, t := range ts {
		keyed[i].key, keyed[i].t = t.String(), t
	}
	sort.Slice(keyed, func(i, j int) bool { return keyed[i].key < keyed[j].key })
	for i := range keyed {
		ts[i] = keyed[i].t
	}
	return ts
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

// removeAt drops process i in place; c's shell must be the caller's own,
// as a stepper's is.
func (c *AConfig) removeAt(i int) {
	n := len(c.Procs) - 1
	copy(c.Procs[i:], c.Procs[i+1:])
	c.Procs[n] = nil
	c.Procs = c.Procs[:n]
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
func (c *AConfig) enabled() []int { return c.appendEnabled(nil) }

// appendEnabled appends the indices of processes with transitions to b.
func (c *AConfig) appendEnabled(b []int) []int {
	for i, p := range c.Procs {
		if p.Status == Running && (hasPending(p) || nextStmt(p) != nil) {
			b = append(b, i)
		}
	}
	return b
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
