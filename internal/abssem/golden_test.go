package abssem_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"psa/internal/absdom"
	"psa/internal/abssem"
	"psa/internal/lang"
	"psa/internal/metrics"
	"psa/internal/paperexp"
	"psa/internal/progen"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/seq_golden.json from the current engine")

const goldenPath = "testdata/seq_golden.json"

// goldenEntry is everything the single-worker fixpoint is pinned to per
// case: the Result digest (counts, terminal join, every invariant, every
// footprint) and the non-zero deterministic counters.
type goldenEntry struct {
	Digest   string           `json:"digest"`
	Counters map[string]int64 `json:"counters"`
}

type goldenCase struct {
	name string
	prog *lang.Program
	opts abssem.Options
}

// goldenCases are the recorded abstract paper workloads, one MaxStates
// cut, and progen corpus seeds 1–40, each under the constant and the
// interval domain with footprints collected.
func goldenCases(t *testing.T) []goldenCase {
	domains := []struct {
		name string
		dom  absdom.NumDomain
	}{{"const", absdom.ConstDomain{}}, {"interval", absdom.IntervalDomain{}}}
	var cases []goldenCase
	add := func(name string, prog *lang.Program, opts abssem.Options) {
		for _, d := range domains {
			o := opts
			o.Domain = d.dom
			o.CollectFootprints = true
			cases = append(cases, goldenCase{name + "/" + d.name, prog, o})
		}
	}
	for _, e := range paperexp.AbsExpectations() {
		add("paper/"+e.Workload, e.Program(), e.Options())
		if e.Workload == "philosophers4" {
			o := e.Options()
			o.MaxStates = 300
			add("paper/"+e.Workload+"/max300", e.Program(), o)
		}
	}
	for seed := int64(1); seed <= 40; seed++ {
		prog, _, err := progen.Generate(seed, progen.CorpusProfile())
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("corpus/seed%d", seed), prog, abssem.Options{})
	}
	return cases
}

func goldenOf(prog *lang.Program, opts abssem.Options) goldenEntry {
	m := metrics.New()
	opts.Metrics = m
	res := abssem.Analyze(prog, opts)
	counters := map[string]int64{}
	for name, v := range m.Snapshot().DeterministicCounters() {
		if v != 0 {
			counters[name] = v
		}
	}
	return goldenEntry{Digest: res.Digest(), Counters: counters}
}

// The fixpoint at 0 and 1 workers must reproduce, case for case, the
// output recorded in testdata/seq_golden.json — generated from the
// hand-written sequential worklist loop the engine had before its
// parallel rounds became the only loop. Differential tests compare N
// workers against the 1-worker run; this test keeps that run itself
// fixed. Regenerate only for an intended change of output: go test -run
// TestSequentialGolden -update.
func TestSequentialGolden(t *testing.T) {
	cases := goldenCases(t)
	if *updateGolden {
		got := map[string]goldenEntry{}
		for _, c := range cases {
			got[c.name] = goldenOf(c.prog, c.opts)
		}
		writeGolden(t, got)
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]goldenEntry
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(cases) {
		t.Errorf("golden has %d cases, test builds %d", len(want), len(cases))
	}
	for _, c := range cases {
		w, ok := want[c.name]
		if !ok {
			t.Errorf("%s: no golden entry", c.name)
			continue
		}
		for _, workers := range []int{0, 1} {
			o := c.opts
			o.Workers = workers
			if got := goldenOf(c.prog, o); !reflect.DeepEqual(got, w) {
				t.Errorf("%s workers=%d:\n got %+v\nwant %+v", c.name, workers, got, w)
			}
		}
	}
}

// writeGolden writes one case per line, sorted by name, so a change
// shows up in a diff as exactly the cases it touches.
func writeGolden(t *testing.T, entries map[string]goldenEntry) {
	names := make([]string, 0, len(entries))
	for n := range entries {
		names = append(names, n)
	}
	sort.Strings(names)
	var b bytes.Buffer
	b.WriteString("{\n")
	for i, n := range names {
		k, _ := json.Marshal(n)
		v, err := json.Marshal(entries[n])
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s: %s", k, v)
		if i < len(names)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("}\n")
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}
