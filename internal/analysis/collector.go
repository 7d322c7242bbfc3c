// Package analysis derives the paper's §5 program properties from
// instrumented state-space exploration: side effects of procedures (§5.1),
// data dependences between statements (§5.2), and object lifetimes /
// memory placement (§5.3), plus the access anomalies that debugging work
// like [MH89] looks for.
//
// A Collector implements explore.Sink; feed it to explore.Explore and then
// query the derived analyses. Locations are reported as abstract
// locations: a global variable, or a heap allocation site folded with a
// k-limited birthdate (the abstraction of §6 that keeps the location space
// finite).
package analysis

import (
	"fmt"
	"sort"

	"psa/internal/lang"
	"psa/internal/pstring"
	"psa/internal/sem"
)

// AbsLoc is an abstract location: either a global variable (Global ≥ 0)
// or the set of heap objects allocated at Site under abstract birthdate
// Birth (Global < 0).
type AbsLoc struct {
	Global int
	Site   lang.NodeID
	Birth  string
}

// IsHeap reports whether the location abstracts heap storage.
func (a AbsLoc) IsHeap() bool { return a.Global < 0 }

// Format renders the location using program names.
func (a AbsLoc) Format(prog *lang.Program) string {
	if !a.IsHeap() {
		if a.Global < len(prog.Globals) {
			return prog.Globals[a.Global].Name
		}
		return fmt.Sprintf("g%d", a.Global)
	}
	if a.Birth == "" {
		return fmt.Sprintf("heap@%d", a.Site)
	}
	return fmt.Sprintf("heap@%d[%s]", a.Site, a.Birth)
}

// Collector accumulates instrumentation during exploration.
type Collector struct {
	Prog *lang.Program
	// K is the birthdate k-limit used to fold heap locations (default 2).
	K int

	// footprints maps statement → abstract accesses performed by or on
	// behalf of that statement (transitively through calls).
	footprints map[lang.NodeID]map[footKey]bool
	// fnEffects maps function index → observed side effects.
	fnEffects map[int]map[footKey]bool
	// objects maps allocation site+birth → lifetime facts.
	objects map[AbsLoc]*ObjectInfo
	// anomalies collects co-enabled conflicting pairs.
	anomalies map[anomalyKey]*Anomaly
	// fnSeen marks functions under whose activations events occurred.
	fnSeen map[int]bool
}

type footKey struct {
	loc  AbsLoc
	kind sem.AccessKind
}

// ObjectInfo is what the lifetime analysis (§5.3) learns about the
// objects allocated at one abstract location.
type ObjectInfo struct {
	Loc AbsLoc
	// EscapesActivation: some access happened after the allocating
	// activation exited (the birthdate is not a prefix of the access
	// string) — the object cannot be stack-allocated in its creator.
	EscapesActivation bool
	// AccessorProcs is the set of process paths that touched the object.
	AccessorProcs map[string]bool
	// CreatorProc is the process path that allocated it.
	CreatorProc string
	// CreatorFn is the index of the function whose activation allocated
	// the object (-1 when allocated at the top level of main or a thread
	// arm running main's code).
	CreatorFn int
	// Freed reports that some execution freed an object of this site.
	Freed bool
	// Allocs counts allocation events folded into this abstract object.
	Allocs int
}

type anomalyKey struct {
	a, b lang.NodeID
	ww   bool
}

// Anomaly is a co-enabled conflicting access pair: the static counterpart
// of a data race (an "access anomaly" in the debugging literature).
type Anomaly struct {
	StmtA, StmtB lang.NodeID
	Loc          sem.Loc
	WriteWrite   bool
	Count        int
}

// NewCollector builds a collector for prog.
func NewCollector(prog *lang.Program) *Collector {
	return &Collector{
		Prog:       prog,
		K:          2,
		footprints: map[lang.NodeID]map[footKey]bool{},
		fnEffects:  map[int]map[footKey]bool{},
		objects:    map[AbsLoc]*ObjectInfo{},
		anomalies:  map[anomalyKey]*Anomaly{},
		fnSeen:     map[int]bool{},
	}
}

// FnObserved reports whether exploration ever recorded an event (a shared
// access or allocation) under an activation of f; functions with no
// storage traffic at all never register, but they also have nothing to
// prove.
func (cl *Collector) FnObserved(f *lang.FuncDecl) bool { return cl.fnSeen[f.Index] }

// absOf folds a concrete event location into an abstract one.
func (cl *Collector) absOf(ev sem.Event) AbsLoc {
	if ev.Loc.Space == sem.SpaceGlobal {
		return AbsLoc{Global: ev.Loc.Base}
	}
	return AbsLoc{Global: -1, Site: ev.Site, Birth: pstring.Abstract(ev.Birth, cl.K)}
}

// Transition implements explore.Sink.
func (cl *Collector) Transition(res *sem.StepResult) {
	for _, al := range res.Allocs {
		key := AbsLoc{Global: -1, Site: al.Site, Birth: pstring.Abstract(al.Birth, cl.K)}
		obj := cl.objects[key]
		if obj == nil {
			obj = &ObjectInfo{
				Loc: key, AccessorProcs: map[string]bool{},
				CreatorProc: al.Proc, CreatorFn: creatorFn(al.Birth),
			}
			cl.objects[key] = obj
		}
		obj.Allocs++
	}
	for _, ev := range res.Events {
		abs := cl.absOf(ev)
		fk := footKey{loc: abs, kind: ev.Kind}

		// Footprints: the executing statement plus every call site on the
		// activation path is responsible for this access. Side effects
		// (§5.1): the access is a side effect of every activation on the
		// path that did not create the object. One walk of the path, in
		// place, serves both; all three are sets, so order is immaterial.
		cl.addFootprint(ev.Stmt, fk)
		for q := ev.PStr; q != nil; q = pstring.Pop(q) {
			sym, _ := pstring.Top(q)
			if sym.Kind != pstring.SymCall {
				continue
			}
			cl.addFootprint(lang.NodeID(sym.Site), fk)
			cl.fnSeen[sym.Which] = true
			local := ev.Loc.Space == sem.SpaceHeap && ev.Birth != nil && pstring.IsPrefix(q, ev.Birth)
			if !local {
				cl.addEffect(sym.Which, fk)
			}
		}

		// Lifetimes (§5.3).
		if ev.Loc.Space == sem.SpaceHeap {
			obj := cl.objects[abs]
			if obj == nil {
				obj = &ObjectInfo{
					Loc: abs, AccessorProcs: map[string]bool{},
					CreatorProc: ev.ProcPath, CreatorFn: creatorFn(ev.Birth),
				}
				cl.objects[abs] = obj
			}
			obj.AccessorProcs[ev.ProcPath] = true
			if ev.Birth != nil && !pstring.IsPrefix(ev.Birth, ev.PStr) {
				obj.EscapesActivation = true
			}
			if stmt, ok := cl.Prog.Node(ev.Stmt).(*lang.FreeStmt); ok && stmt != nil {
				obj.Freed = true
			}
		}
	}
}

// creatorFn extracts the function whose activation a birthdate ends in
// (-1 for main's top level or a bare thread arm).
func creatorFn(birth *pstring.P) int {
	for q := birth; q != nil; q = pstring.Pop(q) {
		sym, _ := pstring.Top(q)
		if sym.Kind == pstring.SymCall {
			return sym.Which
		}
		// A thread symbol means the arm runs its spawner's code; keep
		// walking outward to find the enclosing call, if any.
	}
	return -1
}

func (cl *Collector) addFootprint(id lang.NodeID, fk footKey) {
	m := cl.footprints[id]
	if m == nil {
		m = map[footKey]bool{}
		cl.footprints[id] = m
	}
	m[fk] = true
}

func (cl *Collector) addEffect(fnIndex int, fk footKey) {
	m := cl.fnEffects[fnIndex]
	if m == nil {
		m = map[footKey]bool{}
		cl.fnEffects[fnIndex] = m
	}
	m[fk] = true
}

// CoEnabled implements explore.Sink.
func (cl *Collector) CoEnabled(c *sem.Config, a, b lang.NodeID, loc sem.Loc, ww bool) {
	if b < a {
		a, b = b, a
	}
	k := anomalyKey{a: a, b: b, ww: ww}
	an := cl.anomalies[k]
	if an == nil {
		an = &Anomaly{StmtA: a, StmtB: b, Loc: loc, WriteWrite: ww}
		cl.anomalies[k] = an
	}
	an.Count++
}

// Anomalies returns the observed co-enabled conflicts, most frequent
// first (deterministically ordered).
func (cl *Collector) Anomalies() []*Anomaly {
	out := make([]*Anomaly, 0, len(cl.anomalies))
	for _, a := range cl.anomalies {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].StmtA != out[j].StmtA {
			return out[i].StmtA < out[j].StmtA
		}
		if out[i].StmtB != out[j].StmtB {
			return out[i].StmtB < out[j].StmtB
		}
		return !out[i].WriteWrite && out[j].WriteWrite
	})
	return out
}

// Objects returns lifetime information per abstract object, ordered by
// site then birth.
func (cl *Collector) Objects() []*ObjectInfo {
	out := make([]*ObjectInfo, 0, len(cl.objects))
	for _, o := range cl.objects {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Loc.Site != out[j].Loc.Site {
			return out[i].Loc.Site < out[j].Loc.Site
		}
		return out[i].Loc.Birth < out[j].Loc.Birth
	})
	return out
}

// Footprint returns the abstract accesses attributed to the statement
// (directly or through calls), ordered deterministically.
func (cl *Collector) Footprint(id lang.NodeID) []FootprintEntry {
	m := cl.footprints[id]
	out := make([]FootprintEntry, 0, len(m))
	for fk := range m {
		out = append(out, FootprintEntry{Loc: fk.loc, Kind: fk.kind})
	}
	sortFootprint(out)
	return out
}

// FootprintEntry is one element of a statement footprint or side-effect
// summary.
type FootprintEntry struct {
	Loc  AbsLoc
	Kind sem.AccessKind
}

func sortFootprint(out []FootprintEntry) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Loc.Global != b.Loc.Global {
			return a.Loc.Global < b.Loc.Global
		}
		if a.Loc.Site != b.Loc.Site {
			return a.Loc.Site < b.Loc.Site
		}
		if a.Loc.Birth != b.Loc.Birth {
			return a.Loc.Birth < b.Loc.Birth
		}
		return a.Kind < b.Kind
	})
}

// SideEffects returns the observed side effects of the function: accesses
// made during its evaluations to objects not created by those evaluations
// (globals always qualify; heap objects qualify when born outside the
// activation). Pure functions return an empty slice.
func (cl *Collector) SideEffects(fn *lang.FuncDecl) []FootprintEntry {
	m := cl.fnEffects[fn.Index]
	out := make([]FootprintEntry, 0, len(m))
	for fk := range m {
		out = append(out, FootprintEntry{Loc: fk.loc, Kind: fk.kind})
	}
	sortFootprint(out)
	return out
}
