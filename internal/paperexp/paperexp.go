// Package paperexp reproduces every quantitative artifact of the paper's
// evaluation: the worked figures (2, 3, 5, 8), the §5/§7 example analyses,
// the [Val88] dining-philosophers scaling claim, and the ablations over
// the design choices DESIGN.md calls out. Each experiment returns a Table
// that cmd/paperbench prints and bench_test.go regenerates under
// `go test -bench`; EXPERIMENTS.md records expected vs. measured shapes.
package paperexp

import (
	"fmt"
	"strings"

	"psa/internal/pipeline"
)

// Table is one reproduced figure/table.
type Table struct {
	ID      string
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprint(c)
	}
	t.Rows = append(t.Rows, row)
}

// Note appends a footnote.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiment is a runnable experiment from the registry. Run takes the
// shared run configuration (pool, key mode, metrics) the
// caller threads through every engine invocation; every recorded number
// is identical at any worker count by the engines' determinism contract.
type Experiment struct {
	ID  string
	Run func(ro pipeline.RunOptions) *Table
}

// Registry lists every experiment at the given scale (small=true keeps
// the philosopher/ablation sweeps cheap for CI-style runs) without
// running any of them.
func Registry(small bool) []Experiment {
	philoN, clanN := 6, 8
	if small {
		philoN, clanN = 4, 5
	}
	return []Experiment{
		{"E1", E1Fig2Outcomes},
		{"E2", E2Fig2Reordered},
		{"E3", E3Fig5Stubborn},
		{"E4", func(ro pipeline.RunOptions) *Table { return E4Philosophers(philoN, ro) }},
		{"E5", E5Fig3Folding},
		{"E6", func(ro pipeline.RunOptions) *Table { return E6ClanFolding(clanN, ro) }},
		{"E7", E7Fig8Parallelize},
		{"E8", E8MemPlacement},
		{"E9", E9SideEffects},
		{"E10", E10Coarsening},
		{"E11", E11OptSafety},
		{"E12", func(ro pipeline.RunOptions) *Table { return E12Ablation(small, ro) }},
		{"E13", E13KLimit},
		{"E14", E14Canonicalization},
		{"E15", E15Restructure},
	}
}

// All runs every experiment at the given scale under the shared run
// configuration.
func All(small bool, ro pipeline.RunOptions) []*Table {
	var out []*Table
	for _, e := range Registry(small) {
		out = append(out, e.Run(ro))
	}
	return out
}
