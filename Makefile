# Tier-1: the build and full test suite (the seed gate).
.PHONY: test
test:
	go build ./... && go test ./...

# Tier-1.5: concurrency hygiene, observability, fault-containment, and
# serving gates — fail if any Go file is not gofmt-formatted, vet
# everything, run the worker-pool, compile-cache,
# shared-program, fault, observability, and server packages under the
# race detector (kcc too: kcc -batch shares one compile cache across the
# runner's workers), fail if the nil-observer step path allocates, fail if
# starting a span without a collector installed allocates, smoke-run
# the observer-overhead and span-overhead benchmarks, exercise the
# end-to-end containment
# gate (a panic injected at every site must degrade gracefully, never
# crash the suite, and fail exactly one cell — the compile site across a
# schedule matrix, -j 1,2,4,8 each under GOMAXPROCS=1 and 2), replay
# the fuzz seed corpora, run the daemon
# lifecycle smoke test (boot on a free port, one analyze round-trip,
# SIGTERM drain), and hold the bytecode VM to its fidelity contract:
# the absolute golden event sequence, the full Figure-2 differential
# against the tree walker, and an interp-level parallel matrix under the
# race detector (8 goroutines calling interp.Run over every Juliet
# program × the 4 tool profiles, each program's compiled code shared).
# The VM and the abstract interpreter (internal/absint, the Value
# Analysis ablation) are test and probe code only: no binary, example or
# the root package may link either; the benchmark module still does.
# Every other package must be linked: a
# repro/internal package that no binary, example, the root package or the
# benchmark module reaches fails the check (the offenders are printed), so
# unused code is deleted rather than kept. The search gates: the parallel POR explorer must
# report byte-identical outcome sets to the sequential DFS oracle on
# every suite case with choice points, and the whole search package must
# be race-clean (workers share the frontier, the POR registry and the
# dedup table). The cluster gates: the ring/breaker/failover package
# race-clean, the router smoke (one shard + one router, analyze
# round-trip, clean SIGTERM drains), and the chaos gate — 3 real shard
# processes behind the router, 1% injected forward faults, one shard
# SIGKILLed mid-load and restarted, auditing zero client-visible
# crashes, exact verdict-counter agreement (client == router delivered
# == per-instance shard counters), drained queues, and a full breaker
# open → half-open → closed cycle — now extended with the artifact-tier
# gates: the whole suite runs every artifact round-trip differentially
# (a decoded program must analyze byte-identically to the compiled
# original on every suite case and on units no suite reaches, such as
# a switch without default, both engines), the artifact package is
# race-clean, and the chaos run additionally audits that the restarted
# shard answers warmed keys by artifact fetch (disk, then peer) with
# zero frontend recompiles, and that the router's cross-node
# single-flight coalesced duplicate compiles. The observability gates on
# top: the UB coverage hot path (evaluated/fired counters on every check
# site — each check names a row of internal/interp/checksites.go, the
# ledger's registry; the tier-1 run holds every row to a check,
# TestCheckSitesNamed, and pins the -coverage report, TestCoverageGolden)
# must not allocate, partial-order-reduction bookkeeping must cost
# the same bytes per logged decision on a deep recursion as on a shallow
# one, scheduling up to 8 operands must not allocate, a user call and a
# run's setup must stay under their pinned heap objects (frames are
# reused, objects come from the store's slab and bytes are plain values),
# function pointers must print the same on 20 concurrent runs of one
# program under the race detector and two interpreters of one program
# must reach one state digest, the search must stay
# under its pinned heap objects per logged decision, the preprocessor
# must reproduce its pinned LP64 output for every suite, torture and fuzz
# input (also on 8 goroutines at once under the race detector), allocate
# at most 5x the bytes for 4x the macro uses and includes, and stay under
# its pinned heap objects per suite unit, lexing and parsing and
# checking must each stay under their pinned heap objects per suite
# unit (tokens stream into the parser, declarators are a value stack and
# scopes one binding table), the whole frontend must
# reproduce its pinned artifact encoding for every suite, torture and
# fuzz-seed unit under LP64 and ILP32 and stay under its pinned heap
# objects per suite unit (units continue from the shared prelude of their
# leading includes), and the chaos run
# finishes by SIGKILLing a shard under a pinned trace id and asserting
# GET /v1/trace/{id} assembles one Chrome trace with the router's failed
# forward + backoff spans and spans from the surviving shard processes.
# Last, the benchmark module (perfbench/, a nested module the root
# `go build ./...` skips) is vetted and tested, because it imports the
# obs, server and cluster APIs.
.PHONY: check
check: test
	test -z "$$(gofmt -l .)"
	go vet ./...
	go test -race ./internal/runner/... ./internal/driver/... ./internal/tools/... ./cmd/kcc/... ./internal/obs/... ./internal/fault/...
	go test -race ./internal/server/...
	go test -race ./internal/cluster/...
	go test -race ./internal/artifact/...
	go test ./internal/artifact/ -run TestArtifactRoundTripGate -count=1
	go test ./internal/interp/ -run 'ObserverPathAllocs' -count=1
	go test ./internal/obs/ -run 'SpanNoCollector' -count=1
	go test ./internal/obs/ -run 'TestCoverageLedgerAllocs' -count=1
	go test ./internal/search/ -run 'TestPORBookkeepingLinear|TestExploreAllocsPerDecision' -count=1
	go test ./internal/interp/ -run 'TestOrderAllocs|TestCallAllocs|TestRunSetupAllocs' -count=1
	go test -race ./internal/interp/ -run 'TestFuncPtrOutputDeterministic|TestStateDigestAcrossNew' -count=1
	go test ./internal/cpp/ -run 'TestCPPOutputGolden|TestCPPLinear|TestCPPAllocsPerUnit' -count=1
	go test -race ./internal/cpp/ -run TestCPPConcurrentGolden -count=1
	go test ./internal/parser/ ./internal/sema/ -run 'TestParserAllocsPerUnit|TestSemaAllocsPerUnit' -count=1
	go test ./internal/driver/ -run 'TestFrontendGolden|TestCompileAllocsPerUnit' -count=1
	go test ./internal/interp/ -run '^$$' -bench BenchmarkObserverOverhead -benchtime 100x
	go test ./internal/obs/ -run '^$$' -bench BenchmarkSpanOverhead -benchtime 100x
	go test ./cmd/ubsuite/ -run TestContainmentGate -count=1
	go test ./internal/lexer/ ./internal/parser/ ./internal/cpp/ ./internal/vm/ -run '^Fuzz' -count=1
	go test ./cmd/undefd/ -run 'TestDaemonSmoke|TestRouterSmoke' -count=1
	go test ./internal/vm/ -run 'TestGoldenEventSequenceVM|TestEngineDiff' -count=1
	go test -race ./internal/vm/ -run TestMatrixParallelVM -count=1
	test -z "$$(go list -deps ./cmd/... ./examples/... . | grep -x repro/internal/vm)"
	test -z "$$(go list -deps ./cmd/... ./examples/... . | grep -x repro/internal/absint)"
	deps=$$(go list -deps ./cmd/... ./examples/... . && cd perfbench && go list -deps ./...) && ! go list ./internal/... | grep -vxF "$$deps"
	go test ./internal/search/ -run 'TestDifferentialGate|TestExploreConfigMatrix' -count=1
	go test -race ./internal/search/ -count=1
	go run ./cmd/undefbench -cluster 3 -kill 1 -c 12 -d 6s -inject 'cluster.forward=error%0.01' -seed 1
	cd perfbench && go vet ./... && go test -count=1 ./...

# Engine speedup: the pre-compiled program, tree-vs-vm dispatch benchmark
# (reported in EXPERIMENTS.md).
.PHONY: bench-vm
bench-vm:
	go test -run '^$$' -bench 'BenchmarkInterpOnly|BenchmarkTortureSuite' -benchtime 1s -count 3

# Fuzz smoke: 30s of coverage-guided fuzzing per frontend stage. New
# crashers land in testdata/fuzz/ and become permanent regression seeds.
.PHONY: fuzz-smoke
fuzz-smoke:
	go test ./internal/lexer/ -run=NONE -fuzz=FuzzLexer -fuzztime 30s
	go test ./internal/parser/ -run=NONE -fuzz=FuzzParser -fuzztime 30s
	go test ./internal/cpp/ -run=NONE -fuzz=FuzzCPP -fuzztime 30s
	go test ./internal/search/ -run=NONE -fuzz=FuzzExploreDiff -fuzztime 30s

# Serving throughput: a 10s closed-loop load run against an in-process
# undefd service (reported in EXPERIMENTS.md). Exits non-zero if the
# daemon dies, the /metrics counters disagree with the client tally, or
# the admission queue fails to drain.
.PHONY: bench-serve
bench-serve:
	go run ./cmd/undefbench -spawn -c 16 -d 10s

# Exploration serving: the same closed loop against the streamed
# /v1/explore, auditing every response's NDJSON frames and the explore
# counters (reported in EXPERIMENTS.md).
.PHONY: bench-explore
bench-explore:
	go run ./cmd/undefbench -spawn -explore -c 16 -d 10s

# Cluster chaos benchmark: a longer kill-shards-under-load run (reported
# in EXPERIMENTS.md) — 3 shard processes + router, one SIGKILL + restart
# mid-load, 1% injected forward faults, full invariants audit.
.PHONY: bench-cluster
bench-cluster:
	go run ./cmd/undefbench -cluster 3 -kill 1 -c 16 -d 15s -inject 'cluster.forward=error%0.01' -seed 1

# Fuller observability benchmark (reported in EXPERIMENTS.md).
.PHONY: bench-obs
bench-obs:
	go test ./internal/interp/ -run '^$$' -bench BenchmarkObserverOverhead -benchtime 1s -count 3

# Tracing demo: run the Figure 2 suite with span collection on and write
# trace.json — Chrome trace-event JSON that loads directly in
# chrome://tracing or https://ui.perfetto.dev (one row per matrix cell:
# cell → compile → interp).
.PHONY: trace-demo
trace-demo:
	go run ./cmd/ubsuite -suite juliet -trace-out trace.json

# Regenerate the paper's evaluation figures (parallel by default; see -j).
.PHONY: figures
figures:
	go run ./cmd/ubsuite -suite juliet
	go run ./cmd/ubsuite -suite own
	go run ./cmd/ubsuite -catalog

.PHONY: bench
bench:
	go test -bench=. -benchmem
