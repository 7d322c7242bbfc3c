package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// buildCmd compiles one of this module's commands into dir and returns
// the binary path.
func buildCmd(t *testing.T, dir, pkg string) string {
	t.Helper()
	bin := filepath.Join(dir, filepath.Base(pkg))
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	cmd.Dir = "../.." // module root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

func writeProg(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "prog.cb")
	src := `
var g; var flag; var data; var out;
func main() {
  cobegin {
    s1: g = 1;
    data = 42;
    flag = 1;
  } || {
    s2: g = 2;
    loop: while flag == 0 { skip; }
    s3: out = data;
  } coend
}
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", bin, args, err, out)
	}
	return string(out)
}

func TestPsaCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	dir := t.TempDir()
	bin := buildCmd(t, dir, "./cmd/psa")
	prog := writeProg(t, dir)

	out := run(t, bin, "-explore", prog)
	for _, want := range []string{"full:", "stubborn:", "states="} {
		if !strings.Contains(out, want) {
			t.Errorf("-explore output missing %q:\n%s", want, out)
		}
	}

	out = run(t, bin, "-anomalies", prog)
	if !strings.Contains(out, "anomaly") {
		t.Errorf("write/write race on g not reported:\n%s", out)
	}

	out = run(t, bin, "-deps", "s1,s2", prog)
	if !strings.Contains(out, "s1") || !strings.Contains(out, "s2") {
		t.Errorf("-deps output:\n%s", out)
	}

	out = run(t, bin, "-hoist", "loop:flag", prog)
	if !strings.Contains(out, "UNSAFE") {
		t.Errorf("hoist must be refused:\n%s", out)
	}

	out = run(t, bin, "-abstract", "interval", prog)
	if !strings.Contains(out, "abstract states=") {
		t.Errorf("-abstract output:\n%s", out)
	}

	out = run(t, bin, "-format", prog)
	if !strings.Contains(out, "cobegin") {
		t.Errorf("-format output:\n%s", out)
	}
}

func TestPsaCLIErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	dir := t.TempDir()
	bin := buildCmd(t, dir, "./cmd/psa")

	// No arguments → usage, exit 2.
	cmd := exec.Command(bin)
	if err := cmd.Run(); err == nil {
		t.Error("expected non-zero exit without arguments")
	}

	// Unparsable file → exit 1.
	bad := filepath.Join(dir, "bad.cb")
	os.WriteFile(bad, []byte("var ;"), 0o644)
	if err := exec.Command(bin, bad).Run(); err == nil {
		t.Error("expected non-zero exit for parse error")
	}
}

func TestExploreCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	dir := t.TempDir()
	bin := buildCmd(t, dir, "./cmd/explore")
	prog := writeProg(t, dir)

	out := run(t, bin, "-compare", prog)
	for _, want := range []string{"full:", "stubborn+coarsen:"} {
		if !strings.Contains(out, want) {
			t.Errorf("-compare output missing %q:\n%s", want, out)
		}
	}

	out = run(t, bin, "-outcomes", "g,out", prog)
	if !strings.Contains(out, "outcomes over (g,out):") {
		t.Errorf("-outcomes output:\n%s", out)
	}

	dot := filepath.Join(dir, "graph.dot")
	run(t, bin, "-reduction", "stubborn", "-dot", dot, prog)
	data, err := os.ReadFile(dot)
	if err != nil {
		t.Fatalf("dot file: %v", err)
	}
	if !strings.Contains(string(data), "digraph") {
		t.Errorf("dot file content:\n%s", data)
	}

	out = run(t, bin, "-divergence", prog)
	if !strings.Contains(out, "divergent") && !strings.Contains(out, "no divergent") {
		t.Errorf("-divergence output:\n%s", out)
	}

	// -terminals prints one line per terminal, sorted by key, so the
	// output is the same on every run. Three arms racing on g end in 15
	// distinct terminals.
	racy := filepath.Join(dir, "racy.cb")
	src := `
var g;
func main() {
  cobegin { g = g * 10 + 1; } || { g = g * 10 + 2; } || { g = g * 10 + 3; } coend
}
`
	if err := os.WriteFile(racy, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, line := range strings.Split(run(t, bin, "-terminals", racy), "\n") {
		if strings.HasPrefix(line, "terminal") {
			lines = append(lines, line)
		}
	}
	if len(lines) != 15 {
		t.Fatalf("-terminals printed %d terminal lines, want 15:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	if !sort.StringsAreSorted(lines) {
		t.Errorf("-terminals lines not sorted:\n%s", strings.Join(lines, "\n"))
	}
}

func TestPaperbenchCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	dir := t.TempDir()
	bin := buildCmd(t, dir, "./cmd/paperbench")
	out := run(t, bin, "-small", "-only", "E1")
	if !strings.Contains(out, "== E1:") {
		t.Errorf("paperbench output:\n%s", out)
	}
	if err := exec.Command(bin, "-only", "E99").Run(); err == nil {
		t.Error("unknown experiment should exit non-zero")
	}
}

func TestPsaCLIExtendedFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	dir := t.TempDir()
	bin := buildCmd(t, dir, "./cmd/psa")
	path := filepath.Join(dir, "ext.cb")
	src := `
var k = 5; var out;
func helper() {
  h1: var p = malloc(1);
  *p = 1;
  return *p;
}
func main() {
  if k < 0 { dead: out = 9; }
  use: out = helper();
}
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}

	out := run(t, bin, "-dealloc", path)
	if !strings.Contains(out, "at exit of helper reclaim") {
		t.Errorf("-dealloc output:\n%s", out)
	}

	out = run(t, bin, "-unreachable", path)
	if !strings.Contains(out, "unreachable: dead") {
		t.Errorf("-unreachable output:\n%s", out)
	}

	out = run(t, bin, "-invariants", "use", path)
	if !strings.Contains(out, "k = 5") {
		t.Errorf("-invariants output:\n%s", out)
	}
}

// Every example program must build and run to completion with sane output.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	wants := map[string][]string{
		"quickstart":       {"state space", "counter=1 flag=1", "anomalies"},
		"parallelizer":     {"finest schedule", "P ∪ E acyclic: true", "outcome sets equal after restructuring: true"},
		"memplanner":       {"b1: shared level", "b2: local", "at exit of scratch reclaim"},
		"racehunt":         {"fast=0 careful=41", "UNSAFE", "yes: careful is read only after the flag handoff"},
		"deadlock":         {"DEADLOCK — no execution terminates", "every reachable configuration can still terminate"},
		"abstractpipeline": {"unreachable: dead", "cobegin { s1 } || { s2 } coend", "Taylor-folded"},
	}
	dir := t.TempDir()
	for name, substrings := range wants {
		name, substrings := name, substrings
		t.Run(name, func(t *testing.T) {
			bin := buildCmd(t, dir, "./examples/"+name)
			out := run(t, bin)
			for _, want := range substrings {
				if !strings.Contains(out, want) {
					t.Errorf("output missing %q:\n%s", want, out)
				}
			}
		})
	}
}

func TestPsaConflictDOT(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	dir := t.TempDir()
	bin := buildCmd(t, dir, "./cmd/psa")
	path := filepath.Join(dir, "fig8.cb")
	src := `
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
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	dot := filepath.Join(dir, "conflicts.dot")
	run(t, bin, "-conflictdot", "s1,s2,s3,s4:"+dot, path)
	data, err := os.ReadFile(dot)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"s1" -> "s4"`) {
		t.Errorf("conflict graph content:\n%s", data)
	}
}

func TestPsaReport(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	dir := t.TempDir()
	bin := buildCmd(t, dir, "./cmd/psa")
	prog := writeProg(t, dir)
	out := run(t, bin, "-report", prog)
	for _, want := range []string{"# psa analysis report", "## State space", "## Access anomalies"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestPsaMetricsFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	dir := t.TempDir()
	bin := buildCmd(t, dir, "./cmd/psa")
	prog := writeProg(t, dir)

	out := run(t, bin, "-metrics", prog)
	for _, want := range []string{"states_unique", "dedup_hits", "phase explore", "levels ("} {
		if !strings.Contains(out, want) {
			t.Errorf("-metrics output missing %q:\n%s", want, out)
		}
	}

	jsonPath := filepath.Join(dir, "metrics.json")
	run(t, bin, "-metrics-json", jsonPath, prog)
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("metrics json: %v", err)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
		Levels   []map[string]any `json:"levels"`
		Phases   []map[string]any `json:"phases"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics json does not parse: %v\n%s", err, data)
	}
	if snap.Counters["states_unique"] == 0 || snap.Counters["transitions_fired"] == 0 {
		t.Errorf("metrics json missing counters: %v", snap.Counters)
	}
	// The default action explores with stubborn reduction, so decision
	// counters must be present (singleton, partial, or full fallback).
	if snap.Counters["stubborn_singleton"]+snap.Counters["stubborn_partial"]+snap.Counters["stubborn_full_fallback"] == 0 {
		t.Errorf("metrics json missing stubborn decisions: %v", snap.Counters)
	}
	if len(snap.Levels) == 0 {
		t.Error("metrics json has no per-level stats")
	}
	if len(snap.Phases) == 0 {
		t.Error("metrics json has no phase timings")
	}

	// Progress lines go to stderr and must not corrupt stdout parsing.
	out = run(t, bin, "-progress", "1ms", prog)
	if !strings.Contains(out, "states=") {
		t.Errorf("-progress run lost the summary:\n%s", out)
	}
}

// An error exit must still flush -metrics-json: the flush runs from a
// defer that os.Exit used to skip, silently losing the snapshot of the
// analyses that DID complete before the failing one.
func TestMetricsFlushOnErrorExit(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	dir := t.TempDir()
	prog := writeProg(t, dir)

	assertExitWithMetrics := func(name, jsonPath string, wantCode int, err error) {
		t.Helper()
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("%s: expected an exit error, got %v", name, err)
		}
		if ee.ExitCode() != wantCode {
			t.Errorf("%s: exit code %d, want %d", name, ee.ExitCode(), wantCode)
		}
		data, rerr := os.ReadFile(jsonPath)
		if rerr != nil {
			t.Fatalf("%s: metrics json not written on error exit: %v", name, rerr)
		}
		var snap struct {
			Counters map[string]int64 `json:"counters"`
		}
		if jerr := json.Unmarshal(data, &snap); jerr != nil {
			t.Fatalf("%s: metrics json does not parse: %v\n%s", name, jerr, data)
		}
		if snap.Counters["states_unique"] == 0 {
			t.Errorf("%s: flushed metrics lost the completed work: %v", name, snap.Counters)
		}
	}

	// psa: -deps completes an instrumented exploration, then -effects on
	// an unknown function fails with exit 1.
	psa := buildCmd(t, dir, "./cmd/psa")
	psaJSON := filepath.Join(dir, "psa-err.json")
	out, err := exec.Command(psa, "-deps", "s1,s2", "-effects", "nosuchfunc",
		"-metrics-json", psaJSON, prog).CombinedOutput()
	if err == nil {
		t.Fatalf("psa: expected exit 1 for unknown -effects function:\n%s", out)
	}
	assertExitWithMetrics("psa", psaJSON, 1, err)

	// explore: the run completes, then the -dot file cannot be created.
	explore := buildCmd(t, dir, "./cmd/explore")
	expJSON := filepath.Join(dir, "explore-err.json")
	out, err = exec.Command(explore, "-dot", filepath.Join(dir, "no", "such", "dir", "g.dot"),
		"-metrics-json", expJSON, prog).CombinedOutput()
	if err == nil {
		t.Fatalf("explore: expected exit 1 for unwritable -dot path:\n%s", out)
	}
	assertExitWithMetrics("explore", expJSON, 1, err)
}

func TestExploreObservabilityFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	dir := t.TempDir()
	bin := buildCmd(t, dir, "./cmd/explore")
	prog := writeProg(t, dir)

	jsonPath := filepath.Join(dir, "metrics.json")
	tracePath := filepath.Join(dir, "trace.out")
	out := run(t, bin, "-reduction", "stubborn", "-workers", "4",
		"-metrics-json", jsonPath, "-trace", tracePath, prog)
	if !strings.Contains(out, "metrics written to") {
		t.Errorf("missing metrics confirmation:\n%s", out)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("metrics json: %v", err)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics json does not parse: %v", err)
	}
	if snap.Counters["states_unique"] == 0 {
		t.Errorf("metrics json empty: %v", snap.Counters)
	}
	if fi, err := os.Stat(tracePath); err != nil || fi.Size() == 0 {
		t.Errorf("runtime trace not written: %v", err)
	}
}

func TestPaperbenchJSONAndGate(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	dir := t.TempDir()
	bin := buildCmd(t, dir, "./cmd/paperbench")
	jsonPath := filepath.Join(dir, "report.json")
	out := run(t, bin, "-small", "-json", jsonPath)
	if !strings.Contains(out, "workload") || !strings.Contains(out, "ok") {
		t.Errorf("verification table missing:\n%s", out)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("json report: %v", err)
	}
	var rep struct {
		OK          bool             `json:"ok"`
		Experiments []map[string]any `json:"experiments"`
		Workloads   []struct {
			Workload string `json:"workload"`
			States   int    `json:"states"`
			OK       bool   `json:"ok"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("json report does not parse: %v", err)
	}
	if !rep.OK {
		t.Error("report not OK on a clean tree")
	}
	if len(rep.Experiments) == 0 || len(rep.Workloads) == 0 {
		t.Errorf("report missing rows: %d experiments, %d workloads",
			len(rep.Experiments), len(rep.Workloads))
	}
	for _, w := range rep.Workloads {
		if !w.OK {
			t.Errorf("workload %s diverged in a clean tree", w.Workload)
		}
	}
}
