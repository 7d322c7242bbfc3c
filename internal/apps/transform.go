package apps

import (
	"fmt"
	"strings"

	"psa/internal/explore"
	"psa/internal/lang"
	"psa/internal/pipeline"
)

// ApplySchedule performs the restructuring the paper's abstract promises:
// it rewrites the program so that the scheduled statements — a contiguous
// run of top-level statements in main — execute as cobegin arms (one arm
// per schedule group, each group keeping its internal order). The result
// is a fresh program built from printed source, so it re-runs through the
// whole pipeline like any input.
func ApplySchedule(prog *lang.Program, sched *Schedule) (*lang.Program, error) {
	if len(sched.Groups) < 2 {
		return nil, fmt.Errorf("apps: schedule has no parallelism to apply")
	}
	main := prog.Func("main")
	if main == nil {
		return nil, fmt.Errorf("apps: no main")
	}
	scheduled := map[string]bool{}
	for _, g := range sched.Groups {
		for _, l := range g {
			scheduled[l] = true
		}
	}
	// Locate the contiguous run of scheduled statements in main's body.
	first, last := -1, -1
	for i, s := range main.Body.Stmts {
		if s.Label() != "" && scheduled[s.Label()] {
			if first < 0 {
				first = i
			}
			last = i
			delete(scheduled, s.Label())
		} else if first >= 0 && last == i-1 && len(scheduled) > 0 {
			return nil, fmt.Errorf("apps: scheduled statements are not contiguous in main (unscheduled %s in between)", lang.DescribeStmt(s))
		}
	}
	if len(scheduled) != 0 {
		missing := make([]string, 0, len(scheduled))
		for l := range scheduled {
			missing = append(missing, l)
		}
		return nil, fmt.Errorf("apps: labels not found at main's top level: %s", strings.Join(missing, ", "))
	}
	byLabel := map[string]lang.Stmt{}
	for _, s := range main.Body.Stmts[first : last+1] {
		byLabel[s.Label()] = s
	}

	// Rebuild the source: globals and non-main functions verbatim, main
	// with the run replaced by a cobegin.
	var b strings.Builder
	for _, g := range prog.Globals {
		if g.Init != 0 {
			fmt.Fprintf(&b, "var %s = %d;\n", g.Name, g.Init)
		} else {
			fmt.Fprintf(&b, "var %s;\n", g.Name)
		}
	}
	for _, f := range prog.Funcs {
		if f.Name == "main" {
			continue
		}
		fmt.Fprintf(&b, "\nfunc %s(%s) ", f.Name, strings.Join(f.Params, ", "))
		b.WriteString(blockSource(f.Body, 0))
		b.WriteString("\n")
	}
	b.WriteString("\nfunc main() {\n")
	for _, s := range main.Body.Stmts[:first] {
		b.WriteString(lang.StmtText(s, 1))
		b.WriteString("\n")
	}
	b.WriteString("  cobegin ")
	for gi, group := range sched.Groups {
		if gi > 0 {
			b.WriteString(" || ")
		}
		b.WriteString("{\n")
		for _, l := range group {
			b.WriteString(lang.StmtText(byLabel[l], 2))
			b.WriteString("\n")
		}
		b.WriteString("  }")
	}
	b.WriteString(" coend\n")
	for _, s := range main.Body.Stmts[last+1:] {
		b.WriteString(lang.StmtText(s, 1))
		b.WriteString("\n")
	}
	b.WriteString("}\n")

	out, err := lang.Parse(b.String())
	if err != nil {
		return nil, fmt.Errorf("apps: transformed program does not parse: %w\n%s", err, b.String())
	}
	return out, nil
}

// blockSource prints a block with its braces at the given indent.
func blockSource(blk *lang.Block, indent int) string {
	var b strings.Builder
	b.WriteString("{\n")
	for _, s := range blk.Stmts {
		b.WriteString(lang.StmtText(s, indent+1))
		b.WriteString("\n")
	}
	b.WriteString(strings.Repeat("  ", indent))
	b.WriteString("}")
	return b.String()
}

// Equivalence is the verification verdict for a restructuring.
type Equivalence struct {
	Equal bool
	// OriginalOutcomes / TransformedOutcomes are the terminal value
	// tuples over the compared globals.
	OriginalOutcomes    [][]int64
	TransformedOutcomes [][]int64
	// OriginalErrors / TransformedErrors count error terminals.
	OriginalErrors    int
	TransformedErrors int
}

// VerifySchedule explores both programs exhaustively and compares their
// reachable outcome sets over every global: the transformation is safe
// iff they coincide (and no new error states appear). This closes the
// loop the paper opens — the same state-space machinery that justified
// the restructuring checks it. Both explorations run inline with full
// reduction; VerifyScheduleWith threads a shared configuration.
func VerifySchedule(original, transformed *lang.Program) Equivalence {
	return VerifyScheduleWith(original, transformed, pipeline.RunOptions{})
}

// VerifyScheduleWith is VerifySchedule under a shared run configuration:
// the two explorations run one after the other on ro's pool, so a
// registry in ro.Metrics records them as two whole runs. The verdict is
// unaffected: each exploration is deterministic, and the outcome sets
// are compared only after both complete. Verification always explores
// with full reduction (a reduced traversal would under-approximate the
// outcome sets), so ro's Reduction/Coarsen settings are deliberately
// overridden.
func VerifyScheduleWith(original, transformed *lang.Program, ro pipeline.RunOptions) Equivalence {
	names := make([]string, len(original.Globals))
	for i, g := range original.Globals {
		names[i] = g.Name
	}
	opts := ro.Strategy(explore.Full, false).ExploreOptions()
	resO := explore.Explore(original, opts)
	resT := explore.Explore(transformed, opts)
	eq := Equivalence{
		OriginalOutcomes:    resO.OutcomeSet(names...),
		TransformedOutcomes: resT.OutcomeSet(names...),
		OriginalErrors:      len(resO.Errors),
		TransformedErrors:   len(resT.Errors),
	}
	eq.Equal = eq.OriginalErrors == eq.TransformedErrors &&
		outcomesEqual(eq.OriginalOutcomes, eq.TransformedOutcomes)
	return eq
}

func outcomesEqual(a, b [][]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}
