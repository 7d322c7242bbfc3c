package psa

import (
	"os/exec"
	"strings"
	"testing"
)

// TestBenchRegressionScript runs the bench-compare regression filter
// (scripts/benchregress.awk, used by the CI bench-compare job and `make
// bench-regressions`) over a hand-written benchstat table: it must warn
// on the one sec/op row above +10% and on nothing else — not on the
// +4.10% row, not on improvements, and not on the +25% B/op row.
func TestBenchRegressionScript(t *testing.T) {
	awk, err := exec.LookPath("awk")
	if err != nil {
		t.Skip("awk not installed")
	}
	out, err := exec.Command(awk, "-f", "scripts/benchregress.awk", "testdata/benchstat/regress.txt").CombinedOutput()
	if err != nil {
		t.Fatalf("awk: %v\n%s", err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) != 2 {
		t.Fatalf("want one row warning and one summary, got:\n%s", out)
	}
	if !strings.HasPrefix(lines[0], "::warning title=bench regression::Encode-2 ") || !strings.Contains(lines[0], "+13.45%") {
		t.Errorf("row warning = %q, want the Encode-2 +13.45%% row", lines[0])
	}
	if want := "::warning::1 benchmark(s) regressed >10% in sec/op"; lines[1] != want {
		t.Errorf("summary = %q, want %q", lines[1], want)
	}
}
