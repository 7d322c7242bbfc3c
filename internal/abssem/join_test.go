package abssem

import (
	"slices"
	"testing"

	"psa/internal/absdom"
	"psa/internal/lang"
)

func gt(i int) absdom.Target { return absdom.Target{Index: i} }

// TestMergeDestDoesNotAliasCopies pins that growing a dest never writes
// into a target array another frame still holds. A frame copy copies its
// dest by value, so both dests share the target slice; with spare
// capacity, appending in place made the copy's merge overwrite the
// original's (both read [g0 g2]).
func TestMergeDestDoesNotAliasCopies(t *testing.T) {
	ts := make([]absdom.Target, 1, 4)
	ts[0] = gt(0)
	base := aDest{kind: destTargets, ts: ts}
	d1, ok1 := mergeDest(base, aDest{kind: destTargets, ts: []absdom.Target{gt(1)}})
	d2, ok2 := mergeDest(base, aDest{kind: destTargets, ts: []absdom.Target{gt(2)}})
	if !ok1 || !ok2 {
		t.Fatal("merging a new target reported no change")
	}
	if want := []absdom.Target{gt(0), gt(1)}; !slices.Equal(d1.ts, want) {
		t.Errorf("first merge = %v, want %v", d1.ts, want)
	}
	if want := []absdom.Target{gt(0), gt(2)}; !slices.Equal(d2.ts, want) {
		t.Errorf("second merge = %v, want %v", d2.ts, want)
	}
	if !slices.Equal(base.ts, []absdom.Target{gt(0)}) {
		t.Errorf("merged-into dest changed to %v", base.ts)
	}

	// The same repro through joinInto on a frame and its copy.
	dom := absdom.IntervalDomain{}
	orig := &AConfig{
		Procs: []*AProc{{Path: "0", Frames: []*AFrame{{Dest: base}}}},
		Store: absdom.NewStore(dom, []int64{0, 0, 0}),
	}
	cp := orig.clone()
	cloneProcIn(cp, 0)
	from := func(tg absdom.Target) *AConfig {
		c := orig.clone()
		cloneProcIn(c, 0).Frames[0].Dest.ts = []absdom.Target{tg}
		return c
	}
	orig.joinInto(from(gt(1)), false, false)
	cp.joinInto(from(gt(2)), false, false)
	if got, want := orig.Procs[0].Frames[0].Dest.ts, []absdom.Target{gt(0), gt(1)}; !slices.Equal(got, want) {
		t.Errorf("original frame dest = %v, want %v", got, want)
	}
	if got, want := cp.Procs[0].Frames[0].Dest.ts, []absdom.Target{gt(0), gt(2)}; !slices.Equal(got, want) {
		t.Errorf("copied frame dest = %v, want %v", got, want)
	}
}

// joinFixture returns a stored-state-like configuration dst and a
// configuration src below it in every component: locals, pending value
// and dest, globals and a heap summary. The second process is shared
// between the two, as a successor shares its unchanged processes.
func joinFixture(t *testing.T) (dst, src *AConfig) {
	t.Helper()
	prog := lang.MustParse(`
var g; var h;
func main() { var x = 1; var y = 2; g = x; }
`)
	d := absdom.IntervalDomain{}
	span := func(lo, hi int64) absdom.Value { return absdom.OfInt(d, lo).Join(absdom.OfInt(d, hi)) }
	heap := absdom.Target{Heap: true, Site: 1}

	dst = initialConfig(prog, d)
	other := *dst.Procs[0]
	other.Path = "1"
	dst.Procs = append(dst.Procs, &other)
	src = dst.clone()
	cloneProcIn(src, 0)

	f := dst.Procs[0].Frames[0]
	f.Locals[0] = span(0, 10)
	f.Locals[1] = absdom.OfInt(d, 1).Join(absdom.OfPtr(d, gt(0)))
	f.Pending = &aPending{dest: aDest{kind: destTargets, ts: []absdom.Target{gt(0), gt(1)}}, val: span(0, 4)}
	dst.Store = dst.Store.SetGlobal(0, span(0, 10)).JoinHeap(heap, span(1, 3))

	g := src.Procs[0].Frames[0]
	g.Locals[0] = span(2, 3)
	g.Locals[1] = absdom.OfInt(d, 1)
	g.Pending = &aPending{dest: aDest{kind: destTargets, ts: []absdom.Target{gt(1)}}, val: absdom.OfInt(d, 4)}
	src.Store = src.Store.SetGlobal(0, absdom.OfInt(d, 5)).JoinHeap(heap, absdom.OfInt(d, 2))
	return dst, src
}

// TestJoinIntoBelowAllocatesNothing pins the Leq-first join: joining or
// widening a configuration already below the stored one reports no
// change, leaves the stored one as it was, and allocates nothing — with
// or without the shell copy a queued state's join asks for.
func TestJoinIntoBelowAllocatesNothing(t *testing.T) {
	dst, src := joinFixture(t)
	before, proc := dst.String()+dst.Procs[0].Frames[0].Locals[0].String(), dst.Procs[0]
	for _, widen := range []bool{false, true} {
		for _, copyShell := range []bool{false, true} {
			if dst.joinInto(src, widen, copyShell) != nil {
				t.Fatalf("joinInto(widen=%v, copyShell=%v) of a smaller configuration reported a change",
					widen, copyShell)
			}
			if allocs := testing.AllocsPerRun(100, func() { dst.joinInto(src, widen, copyShell) }); allocs != 0 {
				t.Errorf("joinInto(widen=%v, copyShell=%v) of a smaller configuration: %v allocs, want 0",
					widen, copyShell, allocs)
			}
		}
	}
	if after := dst.String() + dst.Procs[0].Frames[0].Locals[0].String(); after != before || dst.Procs[0] != proc {
		t.Errorf("stored configuration changed: %s -> %s", before, after)
	}
}

// TestJoinIntoCopyShell pins the join into a state that still has a
// queued task: the stored configuration, which an expansion may be
// reading, is left exactly as it was, and the join lands in a fresh
// shell that shares every process it did not grow.
func TestJoinIntoCopyShell(t *testing.T) {
	dst, src := joinFixture(t)
	// Swap roles: the smaller configuration receives the larger one.
	procs, store := slices.Clone(src.Procs), src.Store
	before := src.String()
	nc := src.joinInto(dst, false, true)
	if nc == nil || nc == src {
		t.Fatalf("joinInto with copyShell returned %p for stored %p, want a fresh shell", nc, src)
	}
	if !slices.Equal(src.Procs, procs) || src.Store != store || src.String() != before {
		t.Error("the stored configuration changed under a copy-shell join")
	}
	if nc.Procs[0] == procs[0] || nc.Procs[1] != procs[1] {
		t.Error("the fresh shell must copy the grown process and share the other")
	}
	if !dst.Store.Leq(nc.Store) {
		t.Errorf("joined store %s does not cover %s", nc.Store, dst.Store)
	}
}

// TestJoinIntoCopiesBeforeWrite pins the ownership rule of stored states:
// a join that grows a process replaces it in dst with a private copy and
// leaves the original, which other states may share, untouched.
func TestJoinIntoCopiesBeforeWrite(t *testing.T) {
	dst, src := joinFixture(t)
	// Swap roles: the smaller configuration receives the larger one.
	shared, sharedOther := src.Procs[0], src.Procs[1]
	locals := slices.Clone(shared.Frames[0].Locals)
	pending := *shared.Frames[0].Pending
	if src.joinInto(dst, false, false) != src {
		t.Fatal("joining a larger configuration reported no change")
	}
	if src.Procs[0] == shared {
		t.Fatal("a grown process was written in place")
	}
	if src.Procs[1] != sharedOther {
		t.Error("a process both configurations share was copied")
	}
	if !slices.EqualFunc(shared.Frames[0].Locals, locals, absdom.Value.Eq) ||
		!shared.Frames[0].Pending.val.Eq(pending.val) ||
		!slices.Equal(shared.Frames[0].Pending.dest.ts, pending.dest.ts) {
		t.Error("the original process changed under a join")
	}
	got := src.Procs[0].Frames[0]
	if !got.Locals[0].Eq(dst.Procs[0].Frames[0].Locals[0]) || !got.Pending.val.Eq(dst.Procs[0].Frames[0].Pending.val) {
		t.Errorf("joined process = %v, want the larger values", got.Locals)
	}
	if !dst.Store.Leq(src.Store) {
		t.Errorf("joined store %s does not cover %s", src.Store, dst.Store)
	}
}
