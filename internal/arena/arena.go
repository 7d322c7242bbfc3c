// Package arena is the recycled storage the engines step successors
// into: sem.Scratch for the concrete explorer, and the abstract engine's
// scratch with absdom.Scratch for its stores. A successor built there
// costs no heap allocation and is copied out only when it is kept.
package arena

// Arena hands out zeroed slices carved from one growing buffer. A Reset
// makes the whole buffer available again; growing never moves memory
// already handed out, so slices from before a growth stay valid until
// the next Reset. The zero value is ready to use. An Arena is not safe
// for concurrent use.
type Arena[T any] struct {
	buf []T
	n   int
}

// Take returns a zeroed slice of length n and capacity c (c >= n): room
// to append up to c elements without leaving the arena.
func (a *Arena[T]) Take(n, c int) []T {
	if a.n+c > len(a.buf) {
		a.buf = make([]T, max(2*len(a.buf), c))
		a.n = 0
	}
	s := a.buf[a.n : a.n+n : a.n+c]
	a.n += c
	clear(s)
	return s
}

// One returns a pointer to one zeroed element.
func (a *Arena[T]) One() *T { return &a.Take(1, 1)[0] }

// Reset makes the buffer available again. Memory handed out before is
// overwritten by later Takes, so nothing may use it past this point.
func (a *Arena[T]) Reset() { a.n = 0 }
