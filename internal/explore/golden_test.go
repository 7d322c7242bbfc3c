package explore_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"psa/internal/explore"
	"psa/internal/lang"
	"psa/internal/metrics"
	"psa/internal/paperexp"
	"psa/internal/progen"
	"psa/internal/sched"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/seq_golden.json from the current explorer")

const goldenPath = "testdata/seq_golden.json"

// goldenEntry is everything the single-worker explorer is pinned to per
// case: the Result counts, a hash of the terminal store set, the
// per-level stats (wall clock stripped), and the non-zero deterministic
// counters.
type goldenEntry struct {
	States      int              `json:"states"`
	Edges       int              `json:"edges"`
	MaxFrontier int              `json:"max_frontier"`
	Errors      int              `json:"errors"`
	Truncated   bool             `json:"truncated"`
	Terminals   string           `json:"terminals"`
	Levels      [][5]int64       `json:"levels"` // level, frontier, unique, dedup, edges
	Counters    map[string]int64 `json:"counters"`
}

type goldenCase struct {
	name string
	prog *lang.Program
	opts explore.Options
}

// goldenCases are the recorded paper workloads under their recorded
// settings, one MaxConfigs cut, and progen corpus seeds 1–40 under full
// and stubborn+coarsen expansion.
func goldenCases(t *testing.T) []goldenCase {
	var cases []goldenCase
	for _, e := range paperexp.Expectations() {
		name := "paper/" + e.Workload + "/" + e.Strategy
		cases = append(cases, goldenCase{name, e.Program(), e.Options()})
		if e.Workload == "philosophers4" && e.Strategy == "full" {
			o := e.Options()
			o.MaxConfigs = 1000
			cases = append(cases, goldenCase{name + "/max1000", e.Program(), o})
		}
	}
	for seed := int64(1); seed <= 40; seed++ {
		prog, _, err := progen.Generate(seed, progen.CorpusProfile())
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("corpus/seed%d", seed)
		cases = append(cases,
			goldenCase{name + "/full", prog, explore.Options{Reduction: explore.Full, MaxConfigs: 1 << 17}},
			goldenCase{name + "/stubborn+coarsen", prog,
				explore.Options{Reduction: explore.Stubborn, Coarsen: true, MaxConfigs: 1 << 17}})
	}
	return cases
}

func goldenOf(prog *lang.Program, opts explore.Options) goldenEntry {
	m := metrics.New()
	opts.Metrics = m
	res := explore.Explore(prog, opts)
	snap := m.Snapshot()
	levels := make([][5]int64, len(snap.Levels))
	for i, l := range snap.Levels {
		levels[i] = [5]int64{int64(l.Level), int64(l.Frontier), l.Unique, l.Dedup, l.Edges}
	}
	counters := map[string]int64{}
	for name, v := range snap.DeterministicCounters() {
		if v != 0 {
			counters[name] = v
		}
	}
	sum := sha256.Sum256([]byte(strings.Join(res.TerminalStoreSet(), "\x00")))
	return goldenEntry{
		States:      res.States,
		Edges:       res.Edges,
		MaxFrontier: res.MaxFrontier,
		Errors:      len(res.Errors),
		Truncated:   res.Truncated,
		Terminals:   hex.EncodeToString(sum[:16]),
		Levels:      levels,
		Counters:    counters,
	}
}

// The explorer at 0 and 1 workers must reproduce, case for case, the
// output recorded in testdata/seq_golden.json — generated from the
// hand-written sequential loop the explorer had before its parallel
// executor became the only loop. Differential tests compare N workers
// against the 1-worker run; this test keeps that run itself fixed.
// Regenerate only for an intended change of output: go test -run
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
		// sched.ForWorkers maps both requests to the nil pool: inline.
		for _, workers := range []int{0, 1} {
			o := c.opts
			o.Pool = sched.ForWorkers(workers)
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
