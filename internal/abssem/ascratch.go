package abssem

import (
	"slices"
	"sync"

	"psa/internal/absdom"
	"psa/internal/arena"
	"psa/internal/pstring"
)

// aScratch is reusable storage for stepping abstract successors that are
// likely to be thrown away: expansion steps a worklist entry's
// configuration into an aScratch and tests each successor against its
// target state there, and the merge copies a successor out with commit
// only when it creates a state (see expandState). A successor below its
// state, or one the merge joins from, is never built on the heap.
//
// Ownership rule, as for sem.Scratch: a scratch successor shares every
// process the step did not write with the configuration stepped (its
// parent), exactly like a step successor, and the parent is never
// written. Every part the step did write — the shell and its Procs
// slice, the stepped, forked and copied processes with their frames,
// locals, block stacks, procedure strings and pending writes, and the
// store's Store and globals — lives in memory that reset recycles. So
// nothing may retain a scratch successor, or anything reached from it,
// past the reset, which comes when the entry's merge is done; commit is
// the way out, and joinInto copies what it keeps. The processes a
// stepper owns are exactly those of its configuration that are not the
// parent's, which is how fork, mutProc and commit tell them apart.
//
// An aScratch is not safe for concurrent use; each expansion takes one
// from scratchPool and its merge puts it back. The zero value is ready
// to use.
type aScratch struct {
	store     absdom.Scratch
	shells    arena.Arena[AConfig]
	procPtrs  arena.Arena[*AProc]
	procs     arena.Arena[AProc]
	frames    arena.Arena[AFrame]
	framePtrs arena.Arena[*AFrame]
	vals      arena.Arena[absdom.Value]
	blocks    arena.Arena[blockPos]
	syms      arena.Arena[pstring.Sym]
	pend      arena.Arena[aPending]
	steppers  arena.Arena[astepper]
	keys      arena.Arena[byte]

	out     []*AConfig // the successors of the current step
	sig     []byte     // the fold key of the successor being tested
	enabled []int      // the expansion's enabled processes
	succs   []aSucc    // the expansion's successors
	ends    []int      // the expansion's per-process ends in succs
}

// scratchPool recycles the storage expansions step into, so a worker
// reuses its aScratch storage across tasks and runs.
var scratchPool = sync.Pool{New: func() any { return new(aScratch) }}

// reset makes the storage available again and drops the references the
// last expansion left, keeping the buffers.
func (s *aScratch) reset() {
	clear(s.out)
	clear(s.succs)
	s.out, s.succs, s.ends, s.enabled = s.out[:0], s.succs[:0], s.ends[:0], s.enabled[:0]
	s.store.Reset()
	s.shells.Reset()
	s.procPtrs.Reset()
	s.procs.Reset()
	s.frames.Reset()
	s.framePtrs.Reset()
	s.vals.Reset()
	s.blocks.Reset()
	s.syms.Reset()
	s.pend.Reset()
	s.steppers.Reset()
	s.keys.Reset()
}

// key copies a fold key into the scratch.
func (s *aScratch) key(sig []byte) []byte {
	k := s.keys.Take(len(sig), len(sig))
	copy(k, sig)
	return k
}

// commit copies c, a successor of parent built in the scratch, out to
// the heap: the processes the step wrote (those not parent's) are
// deep-copied, and so is the store when the step wrote one; everything
// else stays shared with parent. The result is independent of the
// scratch and equal to the successor step would have built.
func commit(parent, c *AConfig) *AConfig {
	nc := &AConfig{Store: c.Store, MayError: c.MayError, Procs: make([]*AProc, len(c.Procs))}
	for i, p := range c.Procs {
		if !slices.Contains(parent.Procs, p) {
			p = (*aScratch)(nil).copyProc(p)
		}
		nc.Procs[i] = p
	}
	if c.Store != parent.Store {
		nc.Store = c.Store.Own()
	}
	return nc
}

// The allocators below are the stepper's only source of memory for the
// parts it writes: a nil *aScratch allocates fresh heap memory with
// exactly the length asked for (what step does), a non-nil one recycles
// its arenas and leaves slack where steps append (process lists, frame
// and block stacks, procedure strings).

// stackSlack is the spare capacity scratch storage gives the stacks and
// lists steps push onto.
const stackSlack = 4

// stores returns the storage store writes go to (nil: the heap).
func (s *aScratch) stores() *absdom.Scratch {
	if s == nil {
		return nil
	}
	return &s.store
}

// config returns an empty configuration shell.
func (s *aScratch) config() *AConfig {
	if s == nil {
		return new(AConfig)
	}
	return s.shells.One()
}

// shell copies c's shell: a new Procs slice whose processes are shared
// with c.
func (s *aScratch) shell(c *AConfig) *AConfig {
	nc := s.config()
	if s == nil {
		nc.Procs = make([]*AProc, len(c.Procs))
	} else {
		nc.Procs = s.procPtrs.Take(len(c.Procs), len(c.Procs)+stackSlack)
	}
	nc.Store, nc.MayError = c.Store, c.MayError
	copy(nc.Procs, c.Procs)
	return nc
}

// copyProcIn replaces process i of c with a private copy and returns it.
func (s *aScratch) copyProcIn(c *AConfig, i int) *AProc {
	np := s.copyProc(c.Procs[i])
	c.Procs[i] = np
	return np
}

// copyProc returns a copy of p — frames, locals, control stack,
// procedure string and pending write copied, arm data shared — which the
// caller may then mutate.
func (s *aScratch) copyProc(p *AProc) *AProc {
	var np *AProc
	if s == nil {
		np = new(AProc)
	} else {
		np = s.procs.One()
	}
	*np = *p
	np.PStr = s.symStack(len(p.PStr))
	copy(np.PStr, p.PStr)
	np.Frames = s.frameStack(len(p.Frames))
	for j, f := range p.Frames {
		nf := s.frame()
		*nf = *f
		nf.Locals = s.values(len(f.Locals))
		copy(nf.Locals, f.Locals)
		nf.Blocks = s.blockStack(len(f.Blocks))
		copy(nf.Blocks, f.Blocks)
		if f.Pending != nil {
			nf.Pending = s.pending(*f.Pending)
		}
		np.Frames[j] = nf
	}
	return np
}

func (s *aScratch) values(n int) []absdom.Value {
	if s == nil {
		return make([]absdom.Value, n)
	}
	return s.vals.Take(n, n)
}

func (s *aScratch) blockStack(n int) []blockPos {
	if s == nil {
		return make([]blockPos, n)
	}
	return s.blocks.Take(n, n+stackSlack)
}

func (s *aScratch) frameStack(n int) []*AFrame {
	if s == nil {
		return make([]*AFrame, n)
	}
	return s.framePtrs.Take(n, n+stackSlack)
}

func (s *aScratch) symStack(n int) []pstring.Sym {
	if s == nil {
		return make([]pstring.Sym, n)
	}
	return s.syms.Take(n, n+stackSlack)
}

func (s *aScratch) frame() *AFrame {
	if s == nil {
		return new(AFrame)
	}
	return s.frames.One()
}

func (s *aScratch) pending(op aPending) *aPending {
	var p *aPending
	if s == nil {
		p = new(aPending)
	} else {
		p = s.pend.One()
	}
	*p = op
	return p
}

func (s *aScratch) stepper() *astepper {
	if s == nil {
		return new(astepper)
	}
	return s.steppers.One()
}
