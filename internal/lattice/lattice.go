// Package lattice provides the lattice-theoretic foundation for the
// abstract-interpretation half of the framework [CC77]: a generic Lattice
// interface, standard constructions (flat, sign, interval, powerset,
// product, pointwise map), widening, and a fixpoint engine.
//
// Abstract semantics in this framework are built by choosing domains from
// this package; the paper's observation is that each such choice
// "automatically suggests a different folding mechanism" for the state
// space. The package is deliberately independent of the analyzed language.
package lattice

// Lattice describes a (bounded) lattice over element type T. Elements are
// immutable values: operations return new elements and never mutate their
// arguments.
//
// Implementations must satisfy the usual laws, which the Check* helpers in
// this package verify and the test suite runs under testing/quick:
//
//	Leq is a partial order with Bot ⊑ x ⊑ Top
//	Join is the least upper bound, Meet the greatest lower bound
//	a ⊑ b  ⇔  Join(a,b) = b  ⇔  Meet(a,b) = a
type Lattice[T any] interface {
	// Bot returns the least element.
	Bot() T
	// Top returns the greatest element.
	Top() T
	// Leq reports whether a ⊑ b.
	Leq(a, b T) bool
	// Eq reports element equality (Leq both ways).
	Eq(a, b T) bool
	// Join returns a ⊔ b.
	Join(a, b T) T
	// Meet returns a ⊓ b.
	Meet(a, b T) T
	// Format renders an element for diagnostics.
	Format(a T) string
}

// Widener is implemented by lattices of possibly-infinite height that
// provide a widening operator: Widen(older, newer) must be an upper bound
// of both arguments, and any chain x0, x1=Widen(x0,y0), x2=Widen(x1,y1), …
// must stabilize in finitely many steps.
type Widener[T any] interface {
	Widen(older, newer T) T
}

// JoinAll folds Join over elems, starting from Bot.
func JoinAll[T any](l Lattice[T], elems ...T) T {
	acc := l.Bot()
	for _, e := range elems {
		acc = l.Join(acc, e)
	}
	return acc
}

// MeetAll folds Meet over elems, starting from Top.
func MeetAll[T any](l Lattice[T], elems ...T) T {
	acc := l.Top()
	for _, e := range elems {
		acc = l.Meet(acc, e)
	}
	return acc
}

// Lfp computes the least fixpoint of the monotone function f by Kleene
// iteration from Bot. If the lattice implements Widener, widening kicks in
// after warmup iterations to force convergence on infinite-height domains;
// maxIter bounds the loop as a backstop (0 means no bound). The second
// result reports whether a fixpoint was reached (false only if maxIter was
// exhausted first).
func Lfp[T any](l Lattice[T], f func(T) T, warmup, maxIter int) (T, bool) {
	w, _ := l.(Widener[T])
	x := l.Bot()
	for i := 0; maxIter == 0 || i < maxIter; i++ {
		y := f(x)
		if l.Leq(y, x) {
			return x, true
		}
		if w != nil && i >= warmup {
			x = w.Widen(x, y)
		} else {
			x = l.Join(x, y)
		}
	}
	return x, false
}

// CheckPartialOrder verifies reflexivity and antisymmetry of Leq and the
// Bot/Top bounds on the sample elements, returning a description of the
// first violation ("" if none). Transitivity is checked over all triples.
func CheckPartialOrder[T any](l Lattice[T], sample []T) string {
	for _, a := range sample {
		if !l.Leq(a, a) {
			return "Leq not reflexive at " + l.Format(a)
		}
		if !l.Leq(l.Bot(), a) {
			return "Bot not ⊑ " + l.Format(a)
		}
		if !l.Leq(a, l.Top()) {
			return l.Format(a) + " not ⊑ Top"
		}
	}
	for _, a := range sample {
		for _, b := range sample {
			if l.Leq(a, b) && l.Leq(b, a) && !l.Eq(a, b) {
				return "antisymmetry fails at " + l.Format(a) + ", " + l.Format(b)
			}
			for _, c := range sample {
				if l.Leq(a, b) && l.Leq(b, c) && !l.Leq(a, c) {
					return "transitivity fails at " + l.Format(a) + " ⊑ " + l.Format(b) + " ⊑ " + l.Format(c)
				}
			}
		}
	}
	return ""
}

// CheckLatticeLaws verifies join/meet laws (commutativity, associativity,
// idempotence, absorption, and consistency with Leq) over the sample
// elements, returning a description of the first violation ("" if none).
func CheckLatticeLaws[T any](l Lattice[T], sample []T) string {
	for _, a := range sample {
		if !l.Eq(l.Join(a, a), a) {
			return "join not idempotent at " + l.Format(a)
		}
		if !l.Eq(l.Meet(a, a), a) {
			return "meet not idempotent at " + l.Format(a)
		}
	}
	for _, a := range sample {
		for _, b := range sample {
			ab, ba := l.Join(a, b), l.Join(b, a)
			if !l.Eq(ab, ba) {
				return "join not commutative at " + l.Format(a) + ", " + l.Format(b)
			}
			if !l.Eq(l.Meet(a, b), l.Meet(b, a)) {
				return "meet not commutative at " + l.Format(a) + ", " + l.Format(b)
			}
			// Join is an upper bound; Meet a lower bound.
			if !l.Leq(a, ab) || !l.Leq(b, ab) {
				return "join not an upper bound at " + l.Format(a) + ", " + l.Format(b)
			}
			m := l.Meet(a, b)
			if !l.Leq(m, a) || !l.Leq(m, b) {
				return "meet not a lower bound at " + l.Format(a) + ", " + l.Format(b)
			}
			// Absorption.
			if !l.Eq(l.Join(a, l.Meet(a, b)), a) {
				return "absorption (join) fails at " + l.Format(a) + ", " + l.Format(b)
			}
			if !l.Eq(l.Meet(a, l.Join(a, b)), a) {
				return "absorption (meet) fails at " + l.Format(a) + ", " + l.Format(b)
			}
			// Leq-join-meet consistency.
			if l.Leq(a, b) != l.Eq(ab, b) {
				return "Leq/Join inconsistency at " + l.Format(a) + ", " + l.Format(b)
			}
			if l.Leq(a, b) != l.Eq(m, a) {
				return "Leq/Meet inconsistency at " + l.Format(a) + ", " + l.Format(b)
			}
			for _, c := range sample {
				if !l.Eq(l.Join(l.Join(a, b), c), l.Join(a, l.Join(b, c))) {
					return "join not associative"
				}
				if !l.Eq(l.Meet(l.Meet(a, b), c), l.Meet(a, l.Meet(b, c))) {
					return "meet not associative"
				}
				// Join/Meet must be LEAST upper / GREATEST lower bounds.
				if l.Leq(a, c) && l.Leq(b, c) && !l.Leq(l.Join(a, b), c) {
					return "join not least at " + l.Format(a) + ", " + l.Format(b) + " vs " + l.Format(c)
				}
				if l.Leq(c, a) && l.Leq(c, b) && !l.Leq(c, l.Meet(a, b)) {
					return "meet not greatest"
				}
			}
		}
	}
	return ""
}

// CheckWidening verifies on the samples that Widen covers both arguments
// and that widening by something already below the older value changes
// nothing (b ⊑ a ⇒ a ∇ b = a). Fixpoint engines rely on the second law to
// skip a widening whose incoming value adds nothing.
func CheckWidening[T any](l Lattice[T], w Widener[T], sample []T) string {
	for _, a := range sample {
		for _, b := range sample {
			v := w.Widen(a, b)
			if !l.Leq(a, v) || !l.Leq(b, v) {
				return "widening does not cover its arguments at " + l.Format(a) + ", " + l.Format(b)
			}
			if l.Leq(b, a) && !l.Eq(v, a) {
				return "widening by a smaller value changes the older one at " + l.Format(a) + ", " + l.Format(b)
			}
		}
	}
	return ""
}
