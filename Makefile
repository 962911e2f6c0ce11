GO ?= go

.PHONY: all build vet test test-pooldebug race cross bench-smoke bench-gemm bench-secular bits fuzz loc perfbench-check chaos chaos-sdc stress stress-cluster ci clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The scratch pool's ownership-map build: foreign or double Put panics at
# the violation site instead of being clamp-and-counted. It runs the whole
# suite, so the workspace every failed, cancelled and chaos-tested solve
# returns after its runtime shuts down goes through the map too.
test-pooldebug:
	$(GO) test -tags pooldebug ./...

race:
	$(GO) test -race ./...

# The non-amd64 builds: arm64 compiles the portable GEMM kernel instead of
# the assembly ones, and 386 also catches int constants that overflow 32
# bits. Vet type-checks every package and its tests for the target.
cross:
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=386 $(GO) vet ./...
	cd perfbench && GOARCH=arm64 $(GO) vet .

# A short benchmark pass that exercises the scheduler and the hot kernels
# without running the full experiment suite, then times one scratch-pool
# Get+Put pair on one and two CPUs, with both halves on each goroutine
# (RunParallel) and with the Put on another goroutine (a merge's pattern).
bench-smoke:
	$(GO) test -run '^$$' -bench 'SolveDCTaskFlow2000|Steqr400' -benchtime 1x .
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/quark/
	$(GO) test -run '^$$' -bench 'GetPut' -cpu 1,2 ./internal/pool/

# The GEMM kernel benchmarks: the square reference shape, the compressed
# UpdateVect shapes, and the per-merge packed-operand reuse pattern, then
# each micro-kernel this host supports (generic, avx2, avx512) at 256³ and
# the lib-lowdefl root merge shape, so the log shows which kernel ran.
bench-gemm:
	$(GO) test -run '^$$' -bench 'Gemm' -benchtime 1x .
	$(GO) test -run '^$$' -bench 'GemmKernels' -benchtime 0.2s ./internal/blas/

# The secular-phase kernel benchmarks: the SIMD dispatch micro-kernels (the
# secular sums, LocalW's and ComputeVect's ratios and UpdateZ's fused dots,
# all taking the poles and one root's (org, tau), plus the delta column
# Dlaed4 writes when asked and the leaf rotation) and dcbench secular's
# scalar-vs-SIMD timing of Dlaed4 with and without a delta column and of
# LocalW, ComputeVect and UpdateZ.
bench-secular:
	$(GO) test -run '^$$' -bench 'SecularSums|ShiftedSumRatios|MulRatioDiff|RatioSumSq|RatioDots|ShiftInto|Rot' -benchtime 10x ./internal/simd/
	$(GO) run ./cmd/dcbench -quick secular

# The result bits: dcbench bits hashes λ and V of 72 task-flow solves (both
# lib families and a random matrix, three seeds, one and two workers, both
# lanes, assembly on and off) and of the same matrices' 18 full solves by the
# sequential divide and conquer (assembly on and off), and the lines must
# match the committed ones.
# Every kernel gives the same bits on every ISA and each case fixes its
# worker count, so the file holds on any host. A change that moves the bits
# on purpose regenerates it with
#   go run ./cmd/dcbench bits > cmd/dcbench/testdata/bits.txt
# and records in CHANGES.md which cases moved and by how much (dcbench bits
# -against a capture of the parent).
bits:
	$(GO) run ./cmd/dcbench bits | diff cmd/dcbench/testdata/bits.txt -

# Time-boxed search of the two bit contracts, every GEMM micro-kernel
# against its math.FMA reference and every simd kernel with the assembly
# off and on, of the closing sort's column permutation against the
# explicit gather, and of the task flow's merges against the sequential
# driver's inline ones. `go test -fuzz` takes one target per run. New
# coverage inputs are minimized for at most 5 s each so the budget goes to
# the search. A failing input is written under the package's testdata/fuzz,
# where plain `go test` replays it: commit it as a corpus file.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzGemmKernels$$' -fuzztime 30s -fuzzminimizetime 5s ./internal/blas/
	$(GO) test -run '^$$' -fuzz '^FuzzSIMDKernels$$' -fuzztime 30s -fuzzminimizetime 5s ./internal/simd/
	$(GO) test -run '^$$' -fuzz '^FuzzFinalPermutation$$' -fuzztime 30s -fuzzminimizetime 5s ./internal/lapack/
	$(GO) test -run '^$$' -fuzz '^FuzzInlineMergeMatchesTaskFlow$$' -fuzztime 30s -fuzzminimizetime 5s ./internal/core/

# The code lines of the non-test Go files, comments and blank lines
# excluded, per package directory and in total; perfbench, the nested
# benchmark module, is counted on its own line and left out of the total.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './.*' | LC_ALL=C sort | xargs awk ' \
		{ sub(/^[ \t]+/, "") } \
		$$0 == "" || /^\/\// { next } \
		{ d = FILENAME; sub(/\/[^\/]*$$/, "", d); sub(/^\.\/?/, "", d); if (d == "") d = "."; n[d]++; if (d ~ /^perfbench/) pb++; else tot++ } \
		END { for (d in n) if (d !~ /^perfbench/) printf "%6d  %s\n", n[d], d | "LC_ALL=C sort -k2"; \
			close("LC_ALL=C sort -k2"); printf "%6d  total, perfbench excluded\n%6d  perfbench\n", tot, pb }'

# The repository's benchmark (perfbench/, run by BENCHMARK.json) is a nested
# module, so `go build ./...` never compiles it even though it imports the
# internal kernel, core, pool and scheduler packages: vet, build and test it
# on its own so a change to those packages cannot break it unnoticed.
perfbench-check:
	cd perfbench && $(GO) vet . && $(GO) build -o /dev/null . && $(GO) test .

# Fault-injection suite: panic/error/delay probes in every task class across
# randomized solves, repeated under the race detector; the tests themselves
# assert zero goroutine leaks and that every fault ends in a verified result
# (fallback on) or a clean root-cause error (fallback off), that a server job
# forced off its primary tier records why, and the tier routes of every
# method and lane. It also runs the shared breaker/backoff/drain unit tests
# both serving tiers rely on.
chaos:
	$(GO) test -race -count=3 -run 'Chaos|TestServerDegradedRecordsCause|TestTierRoutes' ./eigen/
	$(GO) test -race -count=3 ./internal/faultinject/ ./internal/resilience/
	$(GO) test -race -count=3 -run 'Cancelled|Cancellation|Deadline|TaskFailure' ./internal/quark/

# Silent-data-corruption gate: randomized bit flips injected into packed GEMM
# operands, merge outputs, and served results across every lane (direct solve,
# values-only, server) under the race detector, and into the merges inside a
# leaf task at a 128-row leaf cutoff (TestChaosSDCGateInLeafMerges, matched by
# the gate's pattern). Asserts every injected
# corruption is either detected-and-healed or surfaces as a classified error —
# zero silent wrong-answer escapes — plus the ABFT checksum/invariant unit
# tests, the pathological no-false-positive audit suite, the checks verify
# runs per tier, and the 4-wide Sturm kernel against its scalar reference.
chaos-sdc:
	$(GO) test -race -count=1 -timeout 10m -run 'TestChaosSDCGate|TestAuditPathologicalNoFalsePositives|TestAuditResultDetectsCorruption|TestVerifyDegradedChecks|TestSturmCountBelow4MatchesScalar' ./eigen/
	$(GO) test -race -count=1 -run 'TestPackAChecked|TestVerifyCatches' ./internal/blas/
	$(GO) test -race -count=1 -run 'TestCheckInterlacing|TestCheckTrace|TestDlaed4Interlacing' ./internal/lapack/
	$(GO) test -race -count=1 -run 'TestTridiagResidual|TestDotPairAbs|TestSum' ./internal/simd/
	$(GO) test -race -count=1 -run 'TestSpectrumChecksum|TestCoordinatorChecksumMismatchFailsOver' ./eigen/cluster/

# Serving-layer acceptance gate: 64 concurrent mixed-size solves against a
# memory-budgeted eigen.Server under wildcard chaos probes and the race
# detector, a 64-client small-solve flood, plus the watchdog/cancellation
# goroutine-leak regression tests. Asserts every job ends in a classified
# disposition, reservations never exceed the budget, the pool accountant
# returns to baseline, and no goroutines leak. The admission, drain and
# cancelled-probe tests repeat 20 times so a timing-dependent regression
# shows up here. The placement line repeats the deflated-vector placement
# tests and the merge tests whose panels read and write the same columns
# while other panels run (the CopyBackDeflated → UpdateVect edge), the
# closing sort's segments that write one V concurrently (in both write
# modes), the solves into a NaN-poisoned workspace in every mode, and the
# solves whose V is allocated while the leaves run and whose leaf blocks
# are placed by the merges (also failed and cancelled), under the race
# detector; the last two lines repeat the task runtime's own tests (ready
# heap, wakeups, cancellation) and the scratch pool's (buffers handed
# between goroutines, the retain limit, double-Put detection) the same way.
stress:
	$(GO) test -race -count=1 -timeout 5m -run 'TestServerStress|LeaksNoGoroutines' ./eigen/
	$(GO) test -race -count=20 -timeout 5m -run 'TestServer(QueueFull|ShutdownGraceful|BreakerCancelledProbe)' ./eigen/
	$(GO) test -race -count=10 -run 'TestDeflationPlacement|TestMergeOrderMatchesDlamrg|TestDlaed1PlacementMatchesCopyEverything|TestPanelBoundaryAroundK|TestSolveDCHighDeflation|TestParallelModesIdenticalEigenpairs|TestFinalSortMatchesGather|TestFinalSortCleanModeWritesSpans|TestSolveDCReusedWorkspace|TestOwnedVectorsMatchCallerQ|TestLeafBlocksReturned' ./internal/lapack/ ./internal/core/
	$(GO) test -race -count=20 ./internal/quark/
	$(GO) test -race -count=20 ./internal/pool/

# Cluster-tier acceptance gate: the partition chaos suite under the race
# detector — 3 httptest workers behind a real coordinator serving 220 mixed
# jobs while one worker is partitioned away mid-load and revived, plus the
# all-workers-down local-tier test. Asserts zero lost jobs, the full
# breaker open/half-open/close cycle, and no goroutine leaks.
stress-cluster:
	$(GO) test -race -count=1 -timeout 5m -run 'TestCluster' ./eigen/cluster/

ci: vet build test test-pooldebug race cross bench-smoke bench-gemm bench-secular bits perfbench-check chaos chaos-sdc stress stress-cluster fuzz
