package absdom

import (
	"fmt"
	"sort"
	"strings"

	"psa/internal/arena"
)

// Store is the abstract shared store: one abstract value per global and
// one summary value per abstract heap object (field-insensitive: all
// cells of all objects from one site/birthdate fold together). Stores are
// immutable; updates return new stores sharing structure. The one
// exception is JoinInPlace on a caller's own Clone.
type Store struct {
	dom     NumDomain
	globals []Value
	heap    map[Target]Value
}

// NewStore builds the initial abstract store for the given globals.
func NewStore(d NumDomain, inits []int64) *Store {
	g := make([]Value, len(inits))
	for i, n := range inits {
		g[i] = OfInt(d, n)
	}
	return &Store{dom: d, globals: g, heap: map[Target]Value{}}
}

// Domain returns the numeric domain of the store.
func (s *Store) Domain() NumDomain { return s.dom }

// Global returns the abstract value of global i.
func (s *Store) Global(i int) Value { return s.globals[i] }

// Heap returns the summary value of the abstract object (⊥ if absent:
// nothing was ever stored there).
func (s *Store) Heap(t Target) Value {
	if v, ok := s.heap[t]; ok {
		return v
	}
	return Bot(s.dom)
}

// Load reads through an abstract pointer target.
func (s *Store) Load(t Target) Value {
	if !t.Heap {
		return s.Global(t.Index)
	}
	return s.Heap(t)
}

// SetGlobal strongly updates global i (one concrete cell per global, so
// strong updates are sound when exactly one target is possible).
func (s *Store) SetGlobal(i int, v Value) *Store { return s.SetGlobalIn(nil, i, v) }

// SetGlobalIn is SetGlobal with the new store built in sc.
func (s *Store) SetGlobalIn(sc *Scratch, i int, v Value) *Store {
	ns := s.shallowIn(sc)
	ns.globals = sc.values(len(s.globals))
	copy(ns.globals, s.globals)
	ns.globals[i] = v
	return ns
}

// JoinGlobal weakly updates global i.
func (s *Store) JoinGlobal(i int, v Value) *Store { return s.joinGlobalIn(nil, i, v) }

func (s *Store) joinGlobalIn(sc *Scratch, i int, v Value) *Store {
	return s.SetGlobalIn(sc, i, s.globals[i].Join(v))
}

// JoinHeap weakly updates the abstract object (heap summaries stand for
// many concrete cells, so updates are always weak).
func (s *Store) JoinHeap(t Target, v Value) *Store { return s.JoinHeapIn(nil, t, v) }

// JoinHeapIn is JoinHeap with the new store built in sc. The heap map
// itself is always fresh heap memory.
func (s *Store) JoinHeapIn(sc *Scratch, t Target, v Value) *Store {
	old := s.Heap(t)
	nv := old.Join(v)
	if nv.Eq(old) {
		return s
	}
	ns := s.shallowIn(sc)
	ns.heap = make(map[Target]Value, len(s.heap)+1)
	for k, w := range s.heap {
		ns.heap[k] = w
	}
	ns.heap[t] = nv
	return ns
}

// WriteTargets stores v through a points-to set: a strong update when the
// set is a single global, weak updates otherwise. A ⊤ points-to set
// clobbers every global and every known heap summary.
func (s *Store) WriteTargets(ts []Target, all bool, v Value) *Store {
	return s.WriteTargetsIn(nil, ts, all, v)
}

// WriteTargetsIn is WriteTargets with the new store built in sc.
func (s *Store) WriteTargetsIn(sc *Scratch, ts []Target, all bool, v Value) *Store {
	if all {
		ns := s.shallowIn(sc)
		ns.globals = sc.values(len(s.globals))
		for i := range s.globals {
			ns.globals[i] = s.globals[i].Join(v)
		}
		ns.heap = make(map[Target]Value, len(s.heap))
		for k, w := range s.heap {
			ns.heap[k] = w.Join(v)
		}
		return ns
	}
	if len(ts) == 1 && !ts[0].Heap {
		return s.SetGlobalIn(sc, ts[0].Index, v)
	}
	out := s
	for _, t := range ts {
		if t.Heap {
			out = out.JoinHeapIn(sc, t, v)
		} else {
			out = out.joinGlobalIn(sc, t.Index, v)
		}
	}
	return out
}

func (s *Store) shallowIn(sc *Scratch) *Store {
	ns := sc.store()
	*ns = Store{dom: s.dom, globals: s.globals, heap: s.heap}
	return ns
}

// Scratch is reusable storage for stores that are likely to be thrown
// away: the abstract engine steps a successor's store writes into one
// and copies the store out only if the successor creates a state. A store built
// in a Scratch (the *In methods) is immutable like every other, but its
// Store and its globals live in memory the next Reset recycles, so
// nothing may keep such a store, or a value slice read from it, past
// that point; Own is the way out. Heap maps are never scratch memory. A
// nil *Scratch builds on the heap. A Scratch is not safe for concurrent
// use; the zero value is ready to use.
type Scratch struct {
	stores arena.Arena[Store]
	vals   arena.Arena[Value]
}

// Reset makes the scratch's storage available again.
func (sc *Scratch) Reset() {
	sc.stores.Reset()
	sc.vals.Reset()
}

func (sc *Scratch) store() *Store {
	if sc == nil {
		return new(Store)
	}
	return sc.stores.One()
}

func (sc *Scratch) values(n int) []Value {
	if sc == nil {
		return make([]Value, n)
	}
	return sc.vals.Take(n, n)
}

// Own returns a store equal to s built on the heap: a Store and globals
// of its own, sharing s's heap map. It copies a store built in a Scratch
// out before the scratch is reset.
func (s *Store) Own() *Store {
	ns := &Store{dom: s.dom, globals: make([]Value, len(s.globals)), heap: s.heap}
	copy(ns.globals, s.globals)
	return ns
}

// Clone returns a store equal to s that shares no slice or map structure
// with it. Results handed out of an analysis (per-point invariants,
// terminal joins) are cloned so they can never alias the engine's live
// state, whatever a client or a later engine pass does with them.
func (s *Store) Clone() *Store {
	ns := &Store{
		dom:     s.dom,
		globals: append([]Value(nil), s.globals...),
		heap:    make(map[Target]Value, len(s.heap)),
	}
	for k, v := range s.heap {
		ns.heap[k] = v
	}
	return ns
}

// Join merges two stores pointwise.
func (s *Store) Join(o *Store) *Store {
	ns := &Store{dom: s.dom}
	ns.globals = make([]Value, len(s.globals))
	for i := range s.globals {
		ns.globals[i] = s.globals[i].Join(o.globals[i])
	}
	ns.heap = make(map[Target]Value, len(s.heap)+len(o.heap))
	for k, v := range s.heap {
		ns.heap[k] = v
	}
	for k, v := range o.heap {
		if w, ok := ns.heap[k]; ok {
			ns.heap[k] = w.Join(v)
		} else {
			ns.heap[k] = v
		}
	}
	return ns
}

// Widen widens s by o pointwise.
func (s *Store) Widen(o *Store) *Store {
	ns := &Store{dom: s.dom}
	ns.globals = make([]Value, len(s.globals))
	for i := range s.globals {
		ns.globals[i] = s.globals[i].Widen(o.globals[i])
	}
	ns.heap = make(map[Target]Value, len(s.heap)+len(o.heap))
	for k, v := range s.heap {
		ns.heap[k] = v
	}
	for k, v := range o.heap {
		if w, ok := ns.heap[k]; ok {
			ns.heap[k] = w.Widen(v)
		} else {
			ns.heap[k] = v
		}
	}
	return ns
}

// JoinInPlace joins o into s by overwriting s's own entries, and
// reports whether s grew. Only an entry of o not already below s's is
// joined, so absorbing a store that adds nothing allocates nothing. s
// must be exclusively owned by the caller — a result of Clone that was
// never shared — because every other store is immutable.
func (s *Store) JoinInPlace(o *Store) bool {
	changed := false
	for i, v := range o.globals {
		if !v.Leq(s.globals[i]) {
			s.globals[i] = s.globals[i].Join(v)
			changed = true
		}
	}
	for k, v := range o.heap {
		w, ok := s.heap[k]
		switch {
		case !ok:
			s.heap[k] = v
			changed = true
		case !v.Leq(w):
			s.heap[k] = w.Join(v)
			changed = true
		}
	}
	return changed
}

// Leq reports pointwise ordering.
func (s *Store) Leq(o *Store) bool {
	for i := range s.globals {
		if !s.globals[i].Leq(o.globals[i]) {
			return false
		}
	}
	for k, v := range s.heap {
		if w, ok := o.heap[k]; ok {
			if !v.Leq(w) {
				return false
			}
		} else if !v.IsBot() {
			return false
		}
	}
	return true
}

// Eq reports pointwise equality.
func (s *Store) Eq(o *Store) bool { return s.Leq(o) && o.Leq(s) }

// HeapTargets returns the abstract objects with a summary in the store,
// sorted deterministically. Coverage checks use it to relate concrete
// heap objects to their summaries.
func (s *Store) HeapTargets() []Target {
	out := make([]Target, 0, len(s.heap))
	for k := range s.heap {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// NumGlobals returns the number of globals the store tracks.
func (s *Store) NumGlobals() int { return len(s.globals) }

// String renders the store deterministically.
func (s *Store) String() string {
	var parts []string
	for i, v := range s.globals {
		parts = append(parts, fmt.Sprintf("g%d=%s", i, v))
	}
	keys := make([]Target, 0, len(s.heap))
	for k := range s.heap {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%s", k, s.heap[k]))
	}
	return "{" + strings.Join(parts, " ") + "}"
}
