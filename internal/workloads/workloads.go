// Package workloads builds the programs behind the paper's figures and
// examples and the dining-philosophers family used for the [Val88]
// scaling claim. Random programs for differential testing come from
// package progen.
package workloads

import (
	"fmt"
	"strings"

	"psa/internal/lang"
)

// Fig2 is the Shasha–Snir two-segment program of paper Figure 2(a)
// (Example 1): under sequential consistency exactly three of the four
// (x,y) outcomes are reachable.
func Fig2() *lang.Program {
	return lang.MustParse(`
var A; var B; var x; var y;

func main() {
  cobegin {
    s1: A = 1;
    s2: y = B;
  } || {
    s3: B = 1;
    s4: x = A;
  } coend
}
`)
}

// Fig2Reordered is Figure 2(b): one segment's statement order is
// reversed. Under sequential consistency the reordered program already
// reaches every (x,y) combination, so no statement ordering is
// semantically load-bearing and the compiler may parallelize all four
// statements without changing the outcome set.
func Fig2Reordered() *lang.Program {
	return lang.MustParse(`
var A; var B; var x; var y;

func main() {
  cobegin {
    s2: y = B;
    s1: A = 1;
  } || {
    s3: B = 1;
    s4: x = A;
  } coend
}
`)
}

// Fig2FullyParallel runs the four statements of Figure 2 with no ordering
// constraints at all (one arm each): the outcome set a compiler's full
// parallelization would produce. Comparing it against Fig2 (illegal) and
// Fig2Reordered (legal) is the paper's Figure 2 argument.
func Fig2FullyParallel() *lang.Program {
	return lang.MustParse(`
var A; var B; var x; var y;

func main() {
  cobegin {
    s1: A = 1;
  } || {
    s2: y = B;
  } || {
    s3: B = 1;
  } || {
    s4: x = A;
  } coend
}
`)
}

// Fig5Malloc is the paper's four-statement running example (Figures 3/5):
// two threads allocate and exchange data through the heap. The paper
// reports that stubborn-set exploration shrinks its configuration space
// to 13 configurations while producing the same result-configurations.
func Fig5Malloc() *lang.Program {
	return lang.MustParse(`
var x; var y;

func main() {
  cobegin {
    s1: y = malloc(1);
    s2: *y = 10;
  } || {
    s3: x = malloc(1);
    s4: *x = *y;
  } coend
}
`)
}

// Fig8Calls is the paper's Figure 8 (Example 15): four sequential calls
// whose bodies conflict pairwise — (s1,s4) through A and (s2,s3) through
// B — so a parallelizer may overlap {s1,s2} with {s3,s4} only by keeping
// those pairs ordered.
func Fig8Calls() *lang.Program {
	return lang.MustParse(`
var A; var B; var r2; var r4;

func f1() { A = 1; return 0; }
func f2() { var t = B; return t; }
func f3() { B = 2; return 0; }
func f4() { var t = A; return t; }

func main() {
  s1: f1();
  s2: r2 = f2();
  s3: f3();
  s4: r4 = f4();
}
`)
}

// MemPlacement is the §7 memory-hierarchy example: b1 is accessed by both
// threads (must live in memory visible to both processors) while b2 is
// accessed by one thread only (can be allocated locally).
func MemPlacement() *lang.Program {
	return lang.MustParse(`
var sink;

func main() {
  b1: var p1 = malloc(1);
  b2: var p2 = malloc(1);
  cobegin {
    a1: *p1 = 1;
  } || {
    a2: var t = *p1;
    a3: *p2 = t;
    a4: sink = *p2;
  } coend
}
`)
}

// BusyWait is the introduction's motivating example: a consumer spins on a
// flag the producer sets after publishing data. Hoisting the flag load out
// of the loop (or constant-propagating it) would break the program — the
// optimizer oracle must refuse.
func BusyWait() *lang.Program {
	return lang.MustParse(`
var flag; var data; var out;

func main() {
  cobegin {
    p1: data = 42;
    p2: flag = 1;
  } || {
    c1: while flag == 0 { skip; }
    c2: out = data;
  } coend
}
`)
}

// Peterson is Peterson's mutual-exclusion protocol for two threads, with
// an assertion that both threads are never in the critical section at
// once. Under sequential consistency (the paper's execution model) the
// protocol is correct: exhaustive exploration finds no failing assertion.
// This is the kind of shared-variable synchronization the restrictive
// models the paper argues against ([Ste90], [Mis91]) cannot express.
func Peterson() *lang.Program {
	return lang.MustParse(`
var flag0; var flag1; var turn;
var inCrit; var done0; var done1;

func main() {
  cobegin {
    flag0 = 1;
    turn = 1;
    w0: while flag1 == 1 && turn == 1 { skip; }
    inCrit = inCrit + 1;
    c0: assert inCrit == 1;
    inCrit = inCrit - 1;
    flag0 = 0;
    done0 = 1;
  } || {
    flag1 = 1;
    turn = 0;
    w1: while flag0 == 1 && turn == 0 { skip; }
    inCrit = inCrit + 1;
    c1: assert inCrit == 1;
    inCrit = inCrit - 1;
    flag1 = 0;
    done1 = 1;
  } coend
}
`)
}

// PetersonBroken drops the turn variable: the naive flag-only protocol
// admits interleavings where both threads enter the critical section.
func PetersonBroken() *lang.Program {
	return lang.MustParse(`
var flag0; var flag1;
var inCrit; var done0; var done1;

func main() {
  cobegin {
    w0: while flag1 == 1 { skip; }
    flag0 = 1;
    inCrit = inCrit + 1;
    c0: assert inCrit == 1;
    inCrit = inCrit - 1;
    flag0 = 0;
    done0 = 1;
  } || {
    w1: while flag0 == 1 { skip; }
    flag1 = 1;
    inCrit = inCrit + 1;
    c1: assert inCrit == 1;
    inCrit = inCrit - 1;
    flag1 = 0;
    done1 = 1;
  } coend
}
`)
}

// CrossedWait is the classic infinite-wait bug Taylor's analysis [Tay83]
// targets: each thread waits for a flag only the other thread would set
// AFTER its own wait. Every interleaving reaches a configuration from
// which no terminal is reachable — both spin forever.
func CrossedWait() *lang.Program {
	return lang.MustParse(`
var f1; var f2; var done1; var done2;

func main() {
  cobegin {
    w1: while f2 == 0 { skip; }
    f1 = 1;
    done1 = 1;
  } || {
    w2: while f1 == 0 { skip; }
    f2 = 1;
    done2 = 1;
  } coend
}
`)
}

// SideEffects exercises §5.1: callees touch globals and heap objects born
// in different activations.
func SideEffects() *lang.Program {
	return lang.MustParse(`
var g; var sink;

func writeG(v) { g = v; return 0; }
func readG() { var t = g; return t; }
func pureLocal() {
  var p = malloc(1);
  *p = 5;
  var t = *p;
  return t;
}
func touchArg(p) { *p = 7; return 0; }

func main() {
  writeG(3);
  sink = readG();
  sink = pureLocal();
  var q = malloc(1);
  touchArg(q);
  sink = *q;
}
`)
}

// Philosophers builds the dining-philosophers workload for n ≥ 2: each
// philosopher bumps its left fork, its right fork, and a private meal
// counter. Adjacent philosophers conflict on the shared fork; stubborn
// sets collapse everything else. [Val88] reports exponential→quadratic
// state counts for this family; the shape (not the constants) is what the
// reproduction checks.
func Philosophers(n int) *lang.Program {
	if n < 2 {
		panic("workloads: need at least 2 philosophers")
	}
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "var fork%d;\n", i)
		fmt.Fprintf(&b, "var meals%d;\n", i)
	}
	b.WriteString("\nfunc main() {\n  cobegin ")
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(" || ")
		}
		left := i
		right := (i + 1) % n
		fmt.Fprintf(&b, "{\n    fork%d = fork%d + 1;\n    fork%d = fork%d + 1;\n    meals%d = meals%d + 1;\n  }", left, left, right, right, i, i)
	}
	b.WriteString(" coend\n}\n")
	return lang.MustParse(b.String())
}

// IndependentWorkers builds n threads each performing k updates of a
// thread-private global and one final update of a shared counter. Full
// interleaving is exponential in n·k; a single shared action per thread
// keeps the stubborn-set space nearly linear.
func IndependentWorkers(n, k int) *lang.Program {
	var b strings.Builder
	b.WriteString("var total;\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "var priv%d;\n", i)
	}
	b.WriteString("\nfunc main() {\n  cobegin ")
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(" || ")
		}
		b.WriteString("{\n")
		for j := 0; j < k; j++ {
			fmt.Fprintf(&b, "    priv%d = priv%d + 1;\n", i, i)
		}
		b.WriteString("    total = total + 1;\n  }")
	}
	b.WriteString(" coend\n}\n")
	return lang.MustParse(b.String())
}

// ProducerConsumer is a two-slot flag-handoff pipeline.
func ProducerConsumer(items int) *lang.Program {
	return lang.MustParse(fmt.Sprintf(`
var flag; var slot; var consumed; var produced;

func main() {
  cobegin {
    var i = 0;
    while i < %d {
      while flag == 1 { skip; }
      slot = i + 100;
      produced = produced + 1;
      flag = 1;
      i = i + 1;
    }
  } || {
    var j = 0;
    while j < %d {
      while flag == 0 { skip; }
      consumed = consumed + slot;
      flag = 0;
      j = j + 1;
    }
  } coend
}
`, items, items))
}

// ClanWorkers builds one cobegin whose n arms run the SAME block (the
// shape McDowell's clans [McD89] and the paper's §6.2 process folding
// exploit): each arm bumps the shared counter once.
func ClanWorkers(n int) *lang.Program {
	var b strings.Builder
	b.WriteString("var counter;\n\nfunc main() {\n  cobegin ")
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(" || ")
		}
		b.WriteString("{ counter = counter + 1; }")
	}
	b.WriteString(" coend\n}\n")
	return lang.MustParse(b.String())
}
