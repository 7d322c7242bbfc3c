package sem

import (
	"fmt"
	"sort"

	"psa/internal/lang"
	"psa/internal/pstring"
)

// HeapObj is one dynamic allocation: its cells plus instrumentation (the
// allocation site and the birthdate procedure string, paper §5).
type HeapObj struct {
	Cells []Value
	Site  lang.NodeID // the MallocExpr node
	Birth *pstring.P  // procedure string at allocation
	Proc  string      // path of the allocating process
}

// blockPos is a position inside a block: the next statement index.
type blockPos struct {
	block *lang.Block
	idx   int
}

// retDest says where a call's result goes in the caller.
type retDest struct {
	kind retKind
	slot int // local slot (retLocal)
	loc  Loc // global or heap cell (retLoc)
}

type retKind uint8

const (
	retNone retKind = iota
	retLocal
	retLoc
)

// pendingOp is the second half of a split transition: a shared write whose
// value was computed by the first half. Splitting happens when one
// statement would otherwise perform two or more critical references
// (paper Observation 5, inverted: actions with at most one critical
// reference stay fused; an assignment reading AND writing shared storage
// is two critical references and must interleave in between).
type pendingOp struct {
	dest retDest
	val  Value
	stmt lang.NodeID // statement being completed (for events)
	bump bool        // advance the instruction pointer on commit
}

// Frame is one procedure activation.
type Frame struct {
	Fn     *lang.FuncDecl
	Locals []Value
	Blocks []blockPos // innermost last
	Dest   retDest    // where the caller wants the result

	// pending, when non-nil, makes the frame's next action the commit of
	// a split shared write rather than a new statement.
	pending *pendingOp

	// hasEntry reports whether this frame pushed a procedure-string entry
	// (calls and cobegin arms do; the root frame running main does not).
	hasEntry bool
}

// ProcStatus is the scheduling state of a process.
type ProcStatus uint8

// Process states.
const (
	StatusRunning ProcStatus = iota
	StatusWaitJoin
	StatusDone
)

func (s ProcStatus) String() string {
	switch s {
	case StatusRunning:
		return "running"
	case StatusWaitJoin:
		return "waiting"
	default:
		return "done"
	}
}

// Process is one thread of control. The root process runs main; cobegin
// arms run in child processes. Identity is the structural Path (root "0",
// arm i of a cobegin in process P is P+"/"+i), which is interleaving-
// independent, so configurations reached along different paths merge.
type Process struct {
	Path   string
	Status ProcStatus
	Frames []*Frame // call stack, innermost last

	// Arm bookkeeping: the block this process runs if it is a cobegin arm
	// (nil for the root), and the number of live children while waiting.
	Parent    string
	LiveKids  int
	PStr      *pstring.P
	ArmOfStmt lang.NodeID // cobegin statement that spawned this arm (0 for root)
}

// Granularity selects the atomicity of transitions.
type Granularity uint8

// Granularity policies.
const (
	// GranRef is the paper's model: each transition carries at most one
	// critical reference (Observation 5). Statements with two or more
	// critical references (e.g. "g = g + 1" on a shared g) split into a
	// read phase and a write phase that other threads can interleave.
	GranRef Granularity = iota
	// GranStmt executes whole statements atomically — a coarser model
	// used as an ablation (it hides races like lost updates).
	GranStmt
)

// Config is a configuration in the paper's sense: the set of concurrent
// processes plus the shared store. Config values are immutable from the
// outside: Step returns fresh configurations, sharing unchanged structure
// with the parent.
type Config struct {
	Prog    *lang.Program
	Procs   []*Process // sorted by Path
	Globals []Value
	Heap    map[int]*HeapObj

	// Gran is the transition granularity (default GranRef).
	Gran Granularity
	// sharing is the static may-shared summary guiding splits.
	sharing *lang.Sharing

	// Err marks a terminal error configuration.
	Err string
	// ErrStmt is the statement that caused Err.
	ErrStmt lang.NodeID

	// nextAlloc numbers heap allocations along this execution path. It is
	// excluded from the canonical encoding (allocation IDs are renamed
	// canonically there).
	nextAlloc int
	// nextInst numbers procedure-string instances along this path;
	// instrumentation only, also excluded from the encoding.
	nextInst uint64
}

// NewConfig builds the initial configuration for prog: globals hold their
// initializers and the root process is about to execute main's body.
func NewConfig(prog *lang.Program) *Config {
	main := prog.Func("main")
	if main == nil {
		panic("sem: program has no main (resolver should have rejected it)")
	}
	info := prog.ResolvedInfo().Funcs[main]
	globals := make([]Value, len(prog.Globals))
	for i, g := range prog.Globals {
		globals[i] = IntVal(g.Init)
	}
	root := &Process{
		Path:   "0",
		Status: StatusRunning,
		Frames: []*Frame{{
			Fn:     main,
			Locals: make([]Value, info.FrameSize),
			Blocks: []blockPos{{block: main.Body, idx: 0}},
		}},
		Parent: "",
		PStr:   pstring.Root,
	}
	return &Config{
		Prog:    prog,
		Procs:   []*Process{root},
		Globals: globals,
		Heap:    map[int]*HeapObj{},
		sharing: lang.AnalyzeSharing(prog),
	}
}

// SetGranularity returns a copy of c using the given granularity; call it
// on the initial configuration before exploring.
func (c *Config) SetGranularity(g Granularity) *Config {
	c2 := c.clone()
	c2.Gran = g
	return c2
}

// isSharedLoc reports whether the location may be accessed by two threads
// with at least one write (per the static sharing summary), which is what
// makes a reference to it critical [Pnu86].
func (c *Config) isSharedLoc(l Loc) bool {
	if c.sharing == nil {
		return true
	}
	if l.Space == SpaceGlobal {
		return c.sharing.GlobalShared[l.Base]
	}
	return c.sharing.HeapShared
}

// proc returns the process with the given path, or nil.
func (c *Config) proc(path string) *Process {
	for _, p := range c.Procs {
		if p.Path == path {
			return p
		}
	}
	return nil
}

// ProcByPath returns the process with the given path, or nil.
func (c *Config) ProcByPath(path string) *Process { return c.proc(path) }

// ProcIndex returns the index of the process with the given path, or -1.
// Procs is kept sorted by Path, so this is a binary search — the
// explorers call it once per coarsened micro-step, where the linear scan
// it replaces showed up on profiles.
func (c *Config) ProcIndex(path string) int {
	i := sort.Search(len(c.Procs), func(i int) bool { return c.Procs[i].Path >= path })
	if i < len(c.Procs) && c.Procs[i].Path == path {
		return i
	}
	return -1
}

// Terminal reports whether the configuration has no enabled process: the
// program finished (root done) or the configuration is an error state.
func (c *Config) Terminal() bool {
	if c.Err != "" {
		return true
	}
	return len(c.Enabled()) == 0
}

// Enabled returns the indices (into Procs) of processes with an enabled
// transition, in deterministic (path-sorted) order.
func (c *Config) Enabled() []int {
	if c.Err != "" {
		return nil
	}
	out := make([]int, 0, len(c.Procs))
	for i, p := range c.Procs {
		if p.Status == StatusRunning && (c.hasPending(p) || c.nextStmt(p) != nil) {
			out = append(out, i)
		}
	}
	return out
}

// ProcEnabled reports whether the process at index i has an enabled
// transition — Enabled() membership without building the slice, for
// callers (the coarsening loop) that probe a single process per step.
func (c *Config) ProcEnabled(i int) bool {
	if c.Err != "" || i < 0 || i >= len(c.Procs) {
		return false
	}
	p := c.Procs[i]
	return p.Status == StatusRunning && (c.hasPending(p) || c.nextStmt(p) != nil)
}

// hasPending reports whether p's next action is the commit of a split
// shared write.
func (c *Config) hasPending(p *Process) bool {
	if len(p.Frames) == 0 {
		return false
	}
	return p.Frames[len(p.Frames)-1].pending != nil
}

// nextStmt returns the next statement process p will execute, or nil if p
// has nothing left (which, for a running process, only happens transiently
// during construction: step advancement eagerly resolves block/frame/arm
// completion).
func (c *Config) nextStmt(p *Process) lang.Stmt {
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

// NextStmt exposes the next statement of the process at index i (nil when
// the process is waiting or finished).
func (c *Config) NextStmt(i int) lang.Stmt {
	p := c.Procs[i]
	if p.Status != StatusRunning {
		return nil
	}
	return c.nextStmt(p)
}

// NextActionID identifies the statement the process at index i will work
// on next: the pending split write's statement if one is outstanding,
// otherwise the next statement (0 if none).
func (c *Config) NextActionID(i int) lang.NodeID {
	p := c.Procs[i]
	if p.Status != StatusRunning {
		return 0
	}
	if c.hasPending(p) {
		return p.Frames[len(p.Frames)-1].pending.stmt
	}
	if s := c.nextStmt(p); s != nil {
		return s.NodeID()
	}
	return 0
}

// LocShared reports whether the location is possibly shared between
// threads (a reference to it is critical in the sense of [Pnu86]).
func (c *Config) LocShared(l Loc) bool { return c.isSharedLoc(l) }

// AccessCritical reports whether the access set contains any critical
// reference: a read or write of possibly-shared storage.
func (c *Config) AccessCritical(a AccessSet) bool {
	for _, l := range a.Reads {
		if l.Space != SpaceHeap || l.Base >= 0 {
			if c.isSharedLoc(l) {
				return true
			}
		}
	}
	for _, l := range a.Writes {
		if l.Space != SpaceHeap || l.Base >= 0 {
			if c.isSharedLoc(l) {
				return true
			}
		}
	}
	return false
}

// clone makes a shallow copy of the configuration with its own process
// slice; processes themselves are shared until a step copies them.
func (c *Config) clone() *Config {
	procs := make([]*Process, len(c.Procs))
	copy(procs, c.Procs)
	return &Config{
		Prog:      c.Prog,
		Procs:     procs,
		Globals:   c.Globals,
		Heap:      c.Heap,
		Gran:      c.Gran,
		sharing:   c.sharing,
		nextAlloc: c.nextAlloc,
		nextInst:  c.nextInst,
	}
}

// insertProcSorted inserts p keeping Procs sorted by Path.
func (c *Config) insertProcSorted(p *Process) {
	i := sort.Search(len(c.Procs), func(i int) bool { return c.Procs[i].Path >= p.Path })
	c.Procs = append(c.Procs, nil)
	copy(c.Procs[i+1:], c.Procs[i:])
	c.Procs[i] = p
}

// removeProc removes the process at index i, in place: a stepped
// configuration's Procs slice is never shared.
func (c *Config) removeProc(i int) {
	n := len(c.Procs) - 1
	copy(c.Procs[i:], c.Procs[i+1:])
	c.Procs[n] = nil
	c.Procs = c.Procs[:n]
}

// ResultGlobals returns a copy of the global store; for terminal
// configurations this is the paper's "result-configuration" content.
func (c *Config) ResultGlobals() []Value {
	out := make([]Value, len(c.Globals))
	copy(out, c.Globals)
	return out
}

// String renders a compact description of the configuration.
func (c *Config) String() string {
	s := "config{"
	for i, p := range c.Procs {
		if i > 0 {
			s += " "
		}
		stmt := "-"
		if n := c.nextStmt(p); n != nil {
			stmt = lang.DescribeStmt(n)
		}
		s += fmt.Sprintf("%s:%s@%s", p.Path, p.Status, stmt)
	}
	if c.Err != "" {
		s += " ERR:" + c.Err
	}
	return s + "}"
}
