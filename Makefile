# Verification loop for the matchmaking reproduction.
#
#   make verify       lint + vet + build + race-enabled shuffled tests + bench-smoke (the PR gate)
#   make test         tier-1 check as ROADMAP.md defines it
#   make test-short   the fast loop: -short skips chaos/simulation soak tests
#   make lint         go vet + repo-invariant analyzers + cadlint over shipped ads + lint-codes
#   make lint-codes   DESIGN.md CAD/MC-code/analyzer tables must match the analyzer/checker source
#   make lint-fix-list machine-readable analyzer findings: file:line: code
#   make mc-short     exhaustive model check of the canonical small pool (the verify-depth run)
#   make mc           deeper model check (MC_FULL=1), plus liveness and mutant self-tests
#   make fuzz         short fuzz run of every Fuzz* target in the tree
#   make crash        durability soak: crash-point matrices + randomized fault soak
#   make bench        matchmaker/classad hot-path benchmarks -> BENCH_matchmaker.json
#   make bench-check  rerun the benchmarks and fail on >20% ns/op, or >2% allocs/op or reported-counter, regression
#   make bench-smoke  vet and test the pool benchmark's own module (bench/)
#   make ci           everything CI runs: verify + repeated timing-sensitive suites + race pass + fuzz

GO ?= go
FUZZTIME ?= 15s
# The hot paths a matchmaker lives on: classad parse/eval/match and
# negotiation (Negotiat covers NegotiationCycle and NegotiateTraced;
# SteadyState is the event-driven delta wake vs full-rebuild pair;
# WakeOneDelta is the quiet wake at two pool sizes, whose ratio pins
# that a wake's cost follows the delta, not the pool), plus E17's
# per-record remote-syscall tax (RemoteSyscallStep) and one match's
# wire path through real daemons (NotifyClaim, whose dials/op pins
# that every conversation reuses a cached connection).
BENCHPAT ?= Parse|Eval|Match|Unparse|Negotiat|Aggregation|FairShare|Analyze|ClaimRevalidation|SteadyState|WakeOneDelta|RemoteSyscallStep|NotifyClaim

.PHONY: verify test test-short build vet lint lint-codes lint-fix-list mc mc-short fuzz crash bench bench-check bench-smoke ci

verify: lint mc-short bench-smoke
	$(GO) build ./...
	$(GO) test -race -shuffle=on ./...

# bench/ is its own module (replace repro => ../), so the root
# `go build ./...` never compiles it: a break of the program surface
# the benchmark calls (bench/README.md) would otherwise show only in
# the benchmark pipeline.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# All static analysis in one target: go vet, the custom invariant
# analyzers (tools/analyzers, typed framework v2: nodial, obsguard,
# msgswitch, lockguard, fsyncguard, tracectx, epochguard, replyguard,
# condguard, determguard, goroguard, sendguard) over every package, the
# ClassAd linter over every ad we ship, and the docs/code sync gate.
# The analyzer driver prints a per-analyzer timing summary and fails
# past its 30s budget. The intentionally broken fixtures live under
# testdata/lint/ and tools/analyzers/testdata/, which none of these
# reach.
lint: lint-codes
	$(GO) vet ./...
	$(GO) run ./tools/analyzers/cmd ./...
	$(GO) run ./cmd/cadlint testdata/*.ad examples/ads/*.ad

# Machine-readable findings for editor/script consumption: one
# `file:line: analyzer` per violation, nothing else.
lint-fix-list:
	$(GO) run ./tools/analyzers/cmd -list ./...

# The DESIGN.md tables are written by hand but enforced by machine:
# these tests re-derive the diagnostic-code vocabulary (§9), the
# analyzer roster (§9), the metrics-name registry (§12), and the
# model-checker invariant codes (§13) from package source and fail on
# any drift against the doc tables.
lint-codes:
	$(GO) test -run 'TestAllCodesMatchesSource|TestDesignDocCodeTableInSync' ./internal/classad/analysis
	$(GO) test -run 'TestDesignDocMetricsTableInSync' ./internal/obs
	$(GO) test -run 'TestAllMCCodesMatchesSource|TestDesignDocModelCheckTableInSync' ./internal/modelcheck
	$(GO) test -run 'TestDesignDocAnalyzerTableInSync' ./tools/analyzers

# Exhaustive small-scope model check of the canonical pool (2 machines,
# 2 jobs, 2 negotiators): the checker owns every source of
# nondeterminism, so a green run means no reachable interleaving within
# the depth bound violates MC101-MC105. -v surfaces the
# explored-schedule and distinct-state counts. mc-short is the verify
# gate; mc sets MC_FULL=1 for the deeper bound and adds the liveness
# and seeded-mutant self-tests.
mc-short:
	$(GO) test -run 'TestExhaustiveSmallPoolInvariants' -v ./internal/modelcheck | grep -v '^=== RUN'

mc:
	MC_FULL=1 $(GO) test -count=1 -v ./internal/modelcheck | grep -v '^=== RUN'

test:
	$(GO) build ./...
	$(GO) test ./...

# The inner development loop: everything but the chaos suite, the
# simulation soaks, and the long randomized-property runs.
test-short:
	$(GO) test -short ./...

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Durability soak: every crash-point matrix (kill the process at the
# k-th filesystem operation, for every k) plus the randomized
# crash/fault soak that `go test -short` skips, all under the race
# detector — the recovery path is the one place a data race and a
# torn write can conspire.
crash:
	$(GO) test -race -count=1 -run 'TestCrash|TestDurableStoreCrashPoints|TestUsageLedgerCrashPoints' \
		./internal/store ./internal/collector ./internal/matchmaker

# Every fuzz target in the tree, FUZZTIME each (go test -fuzz takes one
# target in one package per run, hence the loop): today the wire
# protocol's FuzzReadEnvelope, the WAL's FuzzWALRecord, the classad
# parser's FuzzParseUnparse and the evaluator's FuzzEvalMatch.
# Continuous deep fuzzing raises FUZZTIME.
fuzz:
	@set -e; for pkg in $$($(GO) list ./...); do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz' || true); do \
			echo "fuzz $$pkg $$target"; \
			$(GO) test -run='^$$' -fuzz="^$$target\$$" -fuzztime=$(FUZZTIME) $$pkg; \
		done; \
	done

# Benchmark the matchmaking hot paths and refresh the checked-in
# baseline. benchjson compiles under `make verify` (go build ./...),
# so the pipeline can never rot silently.
bench:
	$(GO) test -run='^$$' -bench='$(BENCHPAT)' -benchmem -cpu 1 . | $(GO) run ./tools/benchjson > BENCH_matchmaker.json
	@echo "wrote BENCH_matchmaker.json"

# Regression gate: rerun the same benchmarks and compare them against
# the committed baseline; exits non-zero past a 20% ns/op slowdown, or
# past a 2% (and at least one allocation) rise in allocs/op or in a
# b.ReportMetric counter (evals/wake, dials/op), which have no host
# noise to hide behind (refresh the baseline via `make bench` when a
# regression is intentional).
# -count=2 with benchjson's min-of-N keeps scheduler noise on shared
# hardware from flagging phantom regressions: a slowdown must
# reproduce in both samples to fail the gate. -cpu 1 (here and in
# `bench`) keeps the GOMAXPROCS suffix out of the benchmark names:
# benchjson matches by name, so a baseline from a 1-CPU host checked
# on a 2-CPU one would otherwise compare nothing and pass.
bench-check:
	$(GO) test -run='^$$' -bench='$(BENCHPAT)' -benchmem -count=2 -cpu 1 . | $(GO) run ./tools/benchjson -check BENCH_matchmaker.json

# The netx and pool suites drive real sockets and timers; running them
# five times over catches a timing-dependent test before the next
# machine does. The sharded scan, the pump goroutine and the cycle
# mutex sit under every entry point, so the packages that own them get
# a race-detector pass of their own — and so does the evaluator under
# the scan: the shards evaluate the same ads from several goroutines
# (TestParallelScanMatchesSequential runs in this pass).
ci: verify fuzz
	$(GO) test -count=5 ./internal/netx ./internal/pool
	$(GO) test -race -short ./internal/pool ./internal/collector ./internal/matchmaker ./internal/obs ./internal/classad
