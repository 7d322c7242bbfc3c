package main

// Oracle 5 (--edits N): incremental-vs-scratch bit-identity over random
// edit sequences. Each seed's generated program becomes the base of an
// N-step edit chain (progen.Mutate, one seed-reproducible single-
// procedure edit per step); every version of the chain is then analyzed
// two ways and the results compared field for field:
//
//   - from scratch: pipeline.Analyze with a fresh metrics registry;
//   - incrementally: three pipeline.Incremental sessions (one-entry
//     result caches) — one per pool, of 0, 1, and 4 workers — each fed
//     the whole chain in order, so a session answers from the cache when
//     an edit is α-neutral and runs the plain fixpoint otherwise.
//
// The oracle demands Result.Digest equality AND deterministic-counter
// equality at every step of every session: incremental re-analysis must
// be indistinguishable from a cold run even through the metrics a
// client could compare. Chains whose scratch analysis hits the
// configuration cap are skipped, like every other oracle.

import (
	"fmt"
	"os"
	"reflect"
	"strings"

	"psa/internal/lang"
	"psa/internal/metrics"
	"psa/internal/pipeline"
	"psa/internal/progen"
)

// editSeed derives the Mutate seed of the i-th edit of a chain from the
// chain's base seed. Part of the reproducibility contract: a reported
// failure replays by hand as Mutate(version[i], editSeed(seed, i)).
func editSeed(base int64, i int) int64 { return base*1_000_003 + int64(i) }

// editChain applies n Mutate steps to src, returning all n+1 versions
// (base first) and the n edit descriptions.
func editChain(src string, seed int64, n int) (versions, descs []string, err error) {
	versions = []string{src}
	for i := 0; i < n; i++ {
		out, desc, err := progen.Mutate(versions[len(versions)-1], editSeed(seed, i))
		if err != nil {
			return nil, nil, err
		}
		versions = append(versions, out)
		descs = append(descs, desc)
	}
	return versions, descs, nil
}

// editChainDiff replays versions through one incremental session per pool
// and compares each step against a from-scratch analysis. It returns
// ("", false) when every step of every session is bit-identical to
// scratch, (detail, false) on the first divergence, and (_, true) when
// some version's scratch run truncates (no verdict).
func editChainDiff(versions []string, ro pipeline.RunOptions, pools []widthPool) (detail string, truncated bool) {
	type session struct {
		name string
		ro   pipeline.RunOptions
		inc  *pipeline.Incremental
	}
	var sessions []*session
	for _, wp := range pools {
		roW := ro
		roW.Pool = wp.pool
		sessions = append(sessions, &session{
			name: fmt.Sprintf("workers=%d", wp.workers),
			ro:   roW,
			inc:  pipeline.NewIncremental(roW, nil),
		})
	}
	for vi, src := range versions {
		sm := metrics.New()
		roS := ro
		roS.Metrics = sm
		want := pipeline.Analyze(lang.MustParse(src), roS, nil)
		if want.Truncated {
			return "", true
		}
		wantDig := want.Digest()
		wantCtr := sm.Snapshot().DeterministicCounters()
		for _, s := range sessions {
			m := metrics.New()
			roW := s.ro
			roW.Metrics = m
			got := s.inc.Configure(roW).AnalyzeEdit(lang.MustParse(src))
			if dig := got.Digest(); dig != wantDig {
				return fmt.Sprintf("version %d, %s: incremental digest %s vs scratch %s",
					vi, s.name, dig, wantDig), false
			}
			if ctr := m.Snapshot().DeterministicCounters(); !reflect.DeepEqual(ctr, wantCtr) {
				return fmt.Sprintf("version %d, %s: deterministic counters diverged (incremental %v vs scratch %v)",
					vi, s.name, ctr, wantCtr), false
			}
		}
	}
	return "", false
}

// runEditsOracle evaluates oracle 5 on one seed's edit chain.
func runEditsOracle(src string, seed int64, nEdits, maxConfigs int, pools []widthPool) (skipped bool, checked []string, failures []failure) {
	ro := pipeline.RunOptions{MaxConfigs: maxConfigs}
	versions, descs, err := editChain(src, seed, nEdits)
	if err != nil {
		// Mutate validates its own output; failing here means the
		// generator and mutator disagree about the grammar — a harness
		// bug, not an analysis divergence.
		fmt.Fprintf(os.Stderr, "psasoak: %v\n", err)
		os.Exit(2)
	}
	detail, truncated := editChainDiff(versions, ro, pools)
	if truncated {
		return true, nil, nil
	}
	checked = append(checked, "edits")
	if detail != "" {
		failures = append(failures, failure{
			oracle: "edits",
			detail: fmt.Sprintf("%s (edit chain: %s)", detail, strings.Join(descs, "; ")),
			pred:   editsPred(seed, nEdits, ro, pools),
		})
	}
	return false, checked, failures
}

// editsPred reproduces an oracle-5 divergence on a candidate base
// program by rebuilding the edit chain from the same per-step seeds
// (Mutate is deterministic in (source, seed), so the shrunk reproducer
// stays a failing chain, not just a failing base).
func editsPred(seed int64, nEdits int, ro pipeline.RunOptions, pools []widthPool) func(*lang.Program) bool {
	return func(p *lang.Program) bool {
		versions, _, err := editChain(lang.Format(p), seed, nEdits)
		if err != nil {
			return false
		}
		detail, truncated := editChainDiff(versions, ro, pools)
		return !truncated && detail != ""
	}
}
