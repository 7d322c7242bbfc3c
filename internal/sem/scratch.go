package sem

import "psa/internal/arena"

// Scratch is reusable storage for stepping successors that are likely to
// be thrown away. An explorer steps a configuration into a Scratch,
// fingerprints the result there, and copies it out with Commit only when
// the visited set says the successor may be new; a duplicate is never
// built on the heap.
//
// Ownership rule: a scratch configuration shares everything a step did
// not write with its parent, exactly like a Step successor, but every
// part the step did write (the stepped and forked processes, the globals
// slice, the heap map and the heap objects written) lives in memory the
// Scratch recycles. That memory is overwritten by the next Step from a
// different configuration, so nothing may retain the scratch
// configuration, or any slice or pointer reached from it, past that
// point; Commit is the way out. The parent is never written.
//
// A Scratch is not safe for concurrent use; explorers keep one per
// worker. The zero value is ready to use.
type Scratch struct {
	cfg Config
	res StepResult
	st  stepper

	procs []*Process       // backing array of cfg.Procs, reused
	heap  map[int]*HeapObj // the heap map a step takes ownership of

	procBuf  arena.Arena[Process]
	frameBuf arena.Arena[Frame]
	framePtr arena.Arena[*Frame]
	vals     arena.Arena[Value]
	blocks   arena.Arena[blockPos]
	objs     arena.Arena[HeapObj]
	pend     arena.Arena[pendingOp]
}

// Step executes one transition of the process at procIdx of c into the
// scratch and returns the step's result. The result and its Config are
// owned by the scratch (see the ownership rule on Scratch); Events and
// Allocs are fresh heap slices the caller may keep. When c is the
// scratch's current configuration — the previous Step's result — the
// step continues in place, which is how a coarsened run extends itself
// without copying; any other c discards the scratch's contents first.
// The successor is identical to c.Step(procIdx) (c.StepQuiet when
// quiet).
func (s *Scratch) Step(c *Config, procIdx int, quiet bool) *StepResult {
	if c != &s.cfg {
		s.Reset()
		s.cfg = *c
		s.cfg.Procs = append(s.procs[:0], c.Procs...)
		s.st.sc = s
	}
	s.res = StepResult{Config: &s.cfg}
	s.st.cfg, s.st.res = &s.cfg, &s.res
	s.st.quiet, s.st.sharedRead = quiet, false
	s.st.run(procIdx)
	return &s.res
}

// Commit copies the scratch's current configuration out to the heap: the
// parts the steps wrote are deep-copied, everything else stays shared
// with the parent. The returned configuration is independent of the
// scratch and behaves exactly like the successor Step would have built.
func (s *Scratch) Commit() *Config {
	st := &s.st
	nc := new(Config)
	*nc = s.cfg
	nc.Procs = make([]*Process, len(s.cfg.Procs))
	for i, p := range s.cfg.Procs {
		if st.owns(p) {
			p = (*Scratch)(nil).copyProc(p)
			for _, f := range p.Frames {
				if f.pending != nil {
					op := *f.pending
					f.pending = &op
				}
			}
		}
		nc.Procs[i] = p
	}
	if st.ownGlobals {
		nc.Globals = make([]Value, len(s.cfg.Globals))
		copy(nc.Globals, s.cfg.Globals)
	}
	if st.ownHeap {
		nc.Heap = make(map[int]*HeapObj, len(s.cfg.Heap))
		for id, obj := range s.cfg.Heap {
			if st.ownsObj(obj) {
				no := *obj
				no.Cells = make([]Value, len(obj.Cells))
				copy(no.Cells, obj.Cells)
				obj = &no
			}
			nc.Heap[id] = obj
		}
	}
	return nc
}

// Reset discards the scratch's contents and drops its references to the
// last parent configuration, keeping the storage for reuse.
func (s *Scratch) Reset() {
	clear(s.cfg.Procs)
	s.procs = s.cfg.Procs[:0]
	if s.st.ownHeap {
		clear(s.heap)
	}
	s.cfg, s.res = Config{}, StepResult{}
	s.st.reset()
	s.procBuf.Reset()
	s.frameBuf.Reset()
	s.framePtr.Reset()
	s.vals.Reset()
	s.blocks.Reset()
	s.objs.Reset()
	s.pend.Reset()
}

// The allocators below are the copy-on-write points' only source of
// memory: a nil *Scratch allocates fresh heap memory with exactly the
// length asked for (what Step does), a non-nil one recycles its arenas
// and leaves slack where steps append (block and frame stacks), so a
// duplicate successor allocates nothing.

// stackSlack is the spare capacity scratch storage gives the block and
// frame stacks, which steps push onto (if/while bodies, calls).
const stackSlack = 4

func (s *Scratch) values(n int) []Value {
	if s == nil {
		return make([]Value, n)
	}
	return s.vals.Take(n, n)
}

func (s *Scratch) blockStack(n int) []blockPos {
	if s == nil {
		return make([]blockPos, n)
	}
	return s.blocks.Take(n, n+stackSlack)
}

func (s *Scratch) frameStack(n int) []*Frame {
	if s == nil {
		return make([]*Frame, n)
	}
	return s.framePtr.Take(n, n+stackSlack)
}

func (s *Scratch) frame() *Frame {
	if s == nil {
		return new(Frame)
	}
	return s.frameBuf.One()
}

func (s *Scratch) process() *Process {
	if s == nil {
		return new(Process)
	}
	return s.procBuf.One()
}

func (s *Scratch) heapObj(cells int) *HeapObj {
	var obj *HeapObj
	if s == nil {
		obj = new(HeapObj)
	} else {
		obj = s.objs.One()
	}
	obj.Cells = s.values(cells)
	return obj
}

func (s *Scratch) pending(op pendingOp) *pendingOp {
	var p *pendingOp
	if s == nil {
		p = new(pendingOp) // not &op: that would move op to the heap on every call
	} else {
		p = s.pend.One()
	}
	*p = op
	return p
}

// heapMap returns an empty heap map with room for n objects (Reset
// empties the scratch's).
func (s *Scratch) heapMap(n int) map[int]*HeapObj {
	if s == nil {
		return make(map[int]*HeapObj, n)
	}
	if s.heap == nil {
		s.heap = make(map[int]*HeapObj, n)
	}
	return s.heap
}

// copyProc returns a deep copy of p (frames, locals, block stacks) in
// storage from s. Pending split writes are immutable once made, so the
// copy shares them.
func (s *Scratch) copyProc(p *Process) *Process {
	np := s.process()
	*np = *p
	np.Frames = s.frameStack(len(p.Frames))
	for j, f := range p.Frames {
		nf := s.frame()
		*nf = *f
		nf.Locals = s.values(len(f.Locals))
		copy(nf.Locals, f.Locals)
		nf.Blocks = s.blockStack(len(f.Blocks))
		copy(nf.Blocks, f.Blocks)
		np.Frames[j] = nf
	}
	return np
}
