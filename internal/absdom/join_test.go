package absdom

import (
	"math/rand"
	"slices"
	"testing"

	"psa/internal/lang"
)

// sampleNums returns elements of d: ⊥, ⊤, constants, their joins, and
// the half-bounded and unbounded elements widening and arithmetic make.
func sampleNums(d NumDomain) []Num {
	out := []Num{d.Bot(), d.Top()}
	for _, n := range []int64{-3, 0, 1, 5} {
		out = append(out, d.Of(n))
	}
	out = append(out,
		d.Join(d.Of(0), d.Of(5)),
		d.Join(d.Of(-3), d.Of(1)),
		d.Widen(d.Of(0), d.Of(5)),
		d.Widen(d.Of(5), d.Of(0)),
		d.Binop(lang.TokPlus, d.Widen(d.Of(0), d.Of(5)), d.Of(1)),
		d.Neg(d.Widen(d.Of(0), d.Of(5))),
	)
	return out
}

var (
	hA = Target{Heap: true, Site: 1}
	hB = Target{Heap: true, Site: 2, Birth: "a"}
	hC = Target{Heap: true, Site: 3}
)

// sampleValues returns abstract values mixing every component.
func sampleValues(d NumDomain) []Value {
	base := []Value{
		Bot(d), OfUndef(d), OfFn(d, 0), OfFn(d, 1),
		OfPtr(d, Target{Index: 0}), OfPtr(d, hA), TopValue(d),
	}
	for _, n := range sampleNums(d) {
		base = append(base, Value{Num: n})
	}
	out := slices.Clone(base)
	for i, a := range base {
		out = append(out, a.Join(base[(i+3)%len(base)]))
	}
	return out
}

// genStore builds a store over three globals by a random sequence of the
// operations the abstract engine performs, joining and widening with
// earlier stores of pool.
func genStore(r *rand.Rand, d NumDomain, pool []*Store) *Store {
	vals := sampleValues(d)
	targets := []Target{{Index: 0}, {Index: 1}, {Index: 2}, hA, hB, hC}
	heaps := targets[3:]
	s := NewStore(d, []int64{0, 1, 2})
	for n := r.Intn(8); n > 0; n-- {
		v := vals[r.Intn(len(vals))]
		if r.Intn(5) == 0 {
			v = Bot(d) // an update that adds nothing must not add a ⊥ entry
		}
		switch op := r.Intn(8); {
		case op == 0:
			s = s.SetGlobal(r.Intn(3), v)
		case op == 1:
			s = s.JoinGlobal(r.Intn(3), v)
		case op <= 3:
			s = s.JoinHeap(heaps[r.Intn(len(heaps))], v)
		case op == 4:
			var ts []Target
			for _, t := range targets {
				if r.Intn(2) == 0 {
					ts = append(ts, t)
				}
			}
			s = s.WriteTargets(ts, r.Intn(10) == 0, v)
		case op == 5 && len(pool) > 0:
			s = s.Join(pool[r.Intn(len(pool))])
		case op == 6 && len(pool) > 0:
			s = s.Widen(pool[r.Intn(len(pool))])
		}
	}
	return s
}

// TestWideningLawEveryDomain pins b ⊑ a ⇒ a ∇ b = a, which lets the
// abstract engine skip a widening whose incoming value is already below
// the stored one, for the Widen of every numeric domain, Value.Widen and
// Store.Widen. Equality is checked on the rendering too, so skipping
// leaves results bit-identical, not only equal in the lattice.
func TestWideningLawEveryDomain(t *testing.T) {
	for _, d := range allDomains {
		t.Run(d.Name(), func(t *testing.T) {
			nums := sampleNums(d)
			for _, a := range nums {
				for _, b := range nums {
					if !d.Leq(b, a) {
						continue
					}
					if w := d.Widen(a, b); !d.Eq(w, a) || w.String() != a.String() {
						t.Errorf("%s ∇ %s = %s, want %s", a, b, w, a)
					}
				}
			}
			vals := sampleValues(d)
			for _, a := range vals {
				for _, b := range vals {
					if !b.Leq(a) {
						continue
					}
					if w := a.Widen(b); !w.Eq(a) || w.String() != a.String() {
						t.Errorf("value %s ∇ %s = %s, want %s", a, b, w, a)
					}
				}
			}
			r := rand.New(rand.NewSource(1))
			var pool []*Store
			for i := 0; i < 60; i++ {
				pool = append(pool, genStore(r, d, pool))
			}
			for _, a := range pool {
				for _, b := range pool {
					if !b.Leq(a) {
						continue
					}
					if w := a.Widen(b); !w.Eq(a) || w.String() != a.String() {
						t.Errorf("store %s ∇ %s = %s, want %s", a, b, w, a)
					}
				}
			}
		})
	}
}

// TestStoreJoinSkipIsExact checks, over generated stores, that skipping
// the join of a store already below the accumulator is exact: when
// s ⊑ t, t ⊔ s renders the same and has the same heap targets as t. That
// holds only because no heap entry is ever ⊥ (a ⊥ entry of s would be
// below t and still add a target), so the invariant is checked too. It
// also pins JoinInPlace to Join: same result, and "grew" exactly when
// s ⋢ t.
func TestStoreJoinSkipIsExact(t *testing.T) {
	for _, d := range allDomains {
		t.Run(d.Name(), func(t *testing.T) {
			r := rand.New(rand.NewSource(2))
			var pool []*Store
			for i := 0; i < 80; i++ {
				s := genStore(r, d, pool)
				if i%3 == 0 && len(pool) > 0 {
					// A store above an earlier one, so s ⊑ t holds often.
					s = pool[r.Intn(len(pool))].Join(s)
				}
				pool = append(pool, s)
			}
			below := 0
			for _, s := range pool {
				for k, v := range s.heap {
					if v.IsBot() {
						t.Fatalf("store %s holds a ⊥ heap entry at %s", s, k)
					}
				}
				for _, u := range pool {
					j := u.Join(s)
					acc := u.Clone()
					if grew := acc.JoinInPlace(s); grew == s.Leq(u) {
						t.Errorf("JoinInPlace(%s) into %s reported grew=%v", s, u, grew)
					}
					if acc.String() != j.String() {
						t.Errorf("JoinInPlace = %s, Join = %s", acc, j)
					}
					if !s.Leq(u) {
						continue
					}
					below++
					if j.String() != u.String() || !slices.Equal(j.HeapTargets(), u.HeapTargets()) {
						t.Errorf("%s ⊑ %s but the join is %s", s, u, j)
					}
				}
			}
			if below < len(pool)*2 {
				t.Fatalf("only %d ordered pairs generated; the property was barely exercised", below)
			}
		})
	}
}
