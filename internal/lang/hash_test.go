package lang

import (
	"os"
	"path/filepath"
	"testing"
)

const hashBase = `
var g = 0;

func leaf(x) {
  g = x + 1;
}

func caller() {
  leaf(2);
}

func other() {
  g = 7;
}

func main() {
  caller();
  other();
}
`

func hashOf(t *testing.T, src string) (*Program, *ProgramHashes) {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p, HashProgram(p)
}

func funcHash(t *testing.T, p *Program, h *ProgramHashes, name string) string {
	t.Helper()
	f := p.Func(name)
	if f == nil {
		t.Fatalf("no func %q", name)
	}
	return h.Named[f.Index]
}

func TestHashRenameLocalAlphaInvariant(t *testing.T) {
	_, ha := hashOf(t, `func main() { var a = 1; var b = a + 2; b = b - a; }`)
	_, hb := hashOf(t, `func main() { var x = 1; var y = x + 2; y = y - x; }`)
	if ha.Alpha[0] != hb.Alpha[0] {
		t.Errorf("alpha hash should ignore local names: %s vs %s", ha.Alpha[0], hb.Alpha[0])
	}
	if ha.Named[0] == hb.Named[0] {
		t.Errorf("named hash should see local names")
	}
	if ha.ProgramHash(false) != hb.ProgramHash(false) {
		t.Errorf("alpha program hash should ignore local names")
	}
	if ha.ProgramHash(true) == hb.ProgramHash(true) {
		t.Errorf("named program hash should see local names")
	}
}

func TestHashRenameParamAlphaInvariant(t *testing.T) {
	_, ha := hashOf(t, `func f(p) { p = p + 1; } func main() { f(1); }`)
	_, hb := hashOf(t, `func f(q) { q = q + 1; } func main() { f(1); }`)
	if ha.Alpha[0] != hb.Alpha[0] {
		t.Errorf("alpha hash should ignore param names")
	}
	if ha.Named[0] == hb.Named[0] {
		t.Errorf("named hash should see param names")
	}
}

func TestHashLabelExcluded(t *testing.T) {
	_, ha := hashOf(t, `var g = 0; func main() { g = 1; while g > 0 { g = g - 1; } }`)
	_, hb := hashOf(t, `var g = 0; func main() { L1: g = 1; L2: while g > 0 { g = g - 1; } }`)
	if ha.Alpha[0] != hb.Alpha[0] || ha.Named[0] != hb.Named[0] {
		t.Errorf("labels must not affect body hashes")
	}
	if ha.ProgramHash(true) != hb.ProgramHash(true) {
		t.Errorf("labels must not affect the program hash")
	}
}

func TestHashPositionIndependence(t *testing.T) {
	// Editing an earlier procedure renumbers every later NodeID, but the
	// later procedures' hashes must not move.
	pa, ha := hashOf(t, hashBase)
	edited := `
var g = 0;

func leaf(x) {
  g = x + 1;
  g = g + 0;
  skip;
}

func caller() {
  leaf(2);
}

func other() {
  g = 7;
}

func main() {
  caller();
  other();
}
`
	pb, hb := hashOf(t, edited)
	for _, name := range []string{"caller", "other", "main"} {
		if funcHash(t, pa, ha, name) != funcHash(t, pb, hb, name) {
			t.Errorf("%s hash moved under an edit to an earlier proc", name)
		}
	}
	if funcHash(t, pa, ha, "leaf") == funcHash(t, pb, hb, "leaf") {
		t.Errorf("leaf hash should change")
	}
}

func TestHashGlobalsAndFuncList(t *testing.T) {
	_, ha := hashOf(t, `var g = 0; func main() { g = 1; }`)
	_, hb := hashOf(t, `var g = 1; func main() { g = 1; }`)
	if ha.GlobalsDigest == hb.GlobalsDigest {
		t.Errorf("global initializer change must move GlobalsDigest")
	}
	_, hc := hashOf(t, `var g = 0; func extra() { skip; } func main() { g = 1; }`)
	if ha.FuncNamesDigest == hc.FuncNamesDigest {
		t.Errorf("procedure add must move FuncNamesDigest")
	}
	_, he := hashOf(t, `var g = 0; func extra(x) { skip; } func main() { g = 1; }`)
	if hc.FuncNamesDigest == he.FuncNamesDigest {
		t.Errorf("signature (arity) change must move FuncNamesDigest")
	}
}

// TestProgramHashGolden pins the whole-program digests of sample
// programs in both modes. Clients hold on to these values (the service
// returns them as program_hash and accepts them back as base), so any
// change to the canonical rendering is a compatibility break, not a
// refactoring.
func TestProgramHashGolden(t *testing.T) {
	for _, tc := range []struct{ file, alpha, named string }{
		{"bank", "c857537db629e32364950fe52aeece93", "85c8399bb2ed458110847685db282477"},
		{"higherorder", "f5e31c2a0e064008a70a4b2f8f76aba4", "f4169b73c23e3c854edb6c2a4ef7c341"},
		{"mapreduce", "3c413abe6a985260da882c0ebcbbbfca", "00add873b33b37136a52626fa6d82846"},
	} {
		src, err := os.ReadFile(filepath.Join("..", "..", "testdata", tc.file+".cb"))
		if err != nil {
			t.Fatal(err)
		}
		_, h := hashOf(t, string(src))
		if got := h.ProgramHash(false); got != tc.alpha {
			t.Errorf("%s: alpha program hash = %s, want %s", tc.file, got, tc.alpha)
		}
		if got := h.ProgramHash(true); got != tc.named {
			t.Errorf("%s: named program hash = %s, want %s", tc.file, got, tc.named)
		}
	}
}
