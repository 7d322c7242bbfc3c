# Convenience targets for the psa reproduction.

GO ?= go

.PHONY: all build test test-short vet lint bench benchcmp bench-regressions paperbench examples clean \
	fmt fmt-check race bench-smoke fuzz-smoke soak-smoke soak-edits soak psad-smoke perfbench-check vulncheck ci

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis beyond vet. staticcheck is optional locally (CI always
# installs it); the target degrades to vet-only with a notice so `make
# lint` never fails just because the tool is missing.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; ran go vet only" \
		     "(go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

bench:
	$(GO) test -bench=. -benchmem .

# Benchmark the working tree against BASE (default origin/main) and
# print the benchstat delta. The CI bench-compare job runs this target
# with BASE set to the merge base, so BENCH_PAT is the only copy of the
# benchmark pattern. Requires benchstat (go install
# golang.org/x/perf/cmd/benchstat@latest).
BASE ?= origin/main
BENCH_PAT ?= BenchmarkPhilosophers|BenchmarkEncode|BenchmarkParallelExploration|BenchmarkAbstract|BenchmarkSchedDep|BenchmarkIncrementalReanalysis
benchcmp:
	$(GO) test -run '^$$' -bench '$(BENCH_PAT)' -benchmem -count=6 . > /tmp/bench-head.txt
	@tmp=$$(mktemp -d); \
	git worktree add --quiet --detach $$tmp $(BASE) || exit 1; \
	( cd $$tmp && $(GO) test -run '^$$' -bench '$(BENCH_PAT)' -benchmem -count=6 . > /tmp/bench-base.txt ); \
	st=$$?; git worktree remove --force $$tmp; exit $$st
	benchstat /tmp/bench-base.txt /tmp/bench-head.txt

# Print a warning annotation for every sec/op regression above 10% in a
# saved benchstat delta (BENCH_DELTA, default bench-delta.txt, e.g. from
# `make -s benchcmp > bench-delta.txt`). The CI bench-compare job runs
# the same script; TestBenchRegressionScript checks it against
# testdata/benchstat/regress.txt.
BENCH_DELTA ?= bench-delta.txt
bench-regressions:
	awk -f scripts/benchregress.awk $(BENCH_DELTA)

paperbench:
	$(GO) run ./cmd/paperbench

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/parallelizer
	$(GO) run ./examples/memplanner
	$(GO) run ./examples/racehunt
	$(GO) run ./examples/deadlock

clean:
	$(GO) clean ./...

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "these files need gofmt:"; echo "$$out"; exit 1; \
	fi

# The explorer's claim order and the abstract engine's join order vary
# with scheduling, so the claim-table and differential tests repeat
# under the race detector.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run 'Parallel|Dep|Claim|Scratch' ./internal/explore ./internal/sched
	$(GO) test -race -count=10 -run 'Parallel|Dep' ./internal/abssem

# One iteration of every benchmark plus the paperbench regression gate —
# the CI bench-smoke job.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run '^$$' .
	$(GO) run ./cmd/paperbench -small -json paperbench.json
	$(GO) run ./cmd/paperbench -small -workers 4

# Short native-fuzzing pass over the parser targets — enough to catch
# regressions in the grammar's panic-freedom and round-trip property
# without the open-ended runtime of a real fuzzing campaign. FUZZTIME
# can be raised locally (e.g. make fuzz-smoke FUZZTIME=5m).
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test ./internal/lang -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/lang -run '^$$' -fuzz '^FuzzLexer$$' -fuzztime $(FUZZTIME)

# Fixed-seed differential soak smoke — the CI soak-smoke job, which
# uploads the soak-report.json it writes: 200 generated programs
# through all four oracles (concrete-vs-abstract soundness,
# reduced-vs-full equivalence, parallel-vs-inline bit-identity,
# fingerprint-vs-exact-keys). Any divergence exits nonzero and leaves a
# shrunk reproducer in soak-corpus/.
SOAK_SEED ?= 1
SOAK_N ?= 200
soak-smoke:
	$(GO) run ./cmd/psasoak -seed $(SOAK_SEED) -n $(SOAK_N) -max-configs 4096 -corpus soak-corpus \
		-json soak-report.json

# Fixed-seed edit-sequence soak smoke — the CI soak-edits job, which
# uploads the soak-edits-report.json it writes: oracle 5 drives random
# 3-edit chains (progen.Mutate) through pipeline.Incremental at 0/1/4
# workers and requires bit-identical results and deterministic counters
# against from-scratch analysis of every version, under the race
# detector.
EDITS_N ?= 200
soak-edits:
	$(GO) run -race ./cmd/psasoak -seed $(SOAK_SEED) -n $(EDITS_N) -edits 3 -profile small -max-configs 4096 -corpus soak-corpus \
		-json soak-edits-report.json

# Open-ended local soak: bigger programs, deeper exploration, time-boxed.
# Raise SOAK_BUDGET for a long background run (e.g. make soak SOAK_BUDGET=2h).
SOAK_BUDGET ?= 10m
soak:
	$(GO) run ./cmd/psasoak -seed $(SOAK_SEED) -n 100000 -profile big -max-configs 32768 \
		-budget $(SOAK_BUDGET) -corpus soak-corpus -json soak-report.json

# Daemon end-to-end smoke — the CI psad-smoke job: boots cmd/psad on an
# ephemeral port, drives both analyses plus /healthz and /metrics over
# real HTTP, SIGTERMs it, and requires a clean drained exit 0. The
# service-layer integration tests (coalescing, cancellation, panics,
# shutdown) and the tests of the pipeline cache and core.Analyzer, which
# the daemon shares across concurrent requests, run alongside under the
# race detector.
psad-smoke:
	$(GO) test -race -count=1 ./cmd/psad ./internal/service ./internal/pipeline ./internal/core

# The benchmark harness (perfbench/) is its own Go module, so the root
# `go test ./...` skips it; vet and test it here, offline, so an API
# change that breaks the benchmark fails CI instead of the benchmark run.
PERFBENCH_ENV = GOPROXY=off GOFLAGS= GOWORK=off
perfbench-check:
	cd perfbench && $(PERFBENCH_ENV) $(GO) vet ./... && $(PERFBENCH_ENV) $(GO) test ./...

# Known-vulnerability scan over the module and its (stdlib-only)
# dependency graph. govulncheck is optional locally, like staticcheck:
# the target degrades with a notice so `make ci` works offline; the CI
# vulncheck job always installs and enforces it.
vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "vulncheck: govulncheck not installed; skipped" \
		     "(go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# Everything .github/workflows/ci.yml runs, locally.
ci: fmt-check build lint vulncheck test perfbench-check race bench-smoke fuzz-smoke soak-smoke soak-edits psad-smoke
