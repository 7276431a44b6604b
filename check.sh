#!/bin/sh
# check.sh — the full verification gate, run before every merge:
#
#   0. gofmt         every Go file is gofmt-formatted (gofmt -l lists none)
#   1. go vet        standard suspicious-construct checks
#   2. go build      every package compiles
#   3. go test -race full test suite (includes TestVetABR, the
#                    determinism regression test, and the fast examples'
#                    Example tests, which pin their printed output; httpdemo
#                    has none, it is about 40 s of real loopback HTTP)
#                    under the race detector
#   4. vetabr        project-specific static analysis: simclock, globalrand,
#                    maporder, rangeleak, sharedcapture, recmut, floateq,
#                    units (see docs/STATIC_ANALYSIS.md) — any
#                    unsuppressed warning fails the step
#   5. suppressions  every //lint:ignore in the tree must be rule-scoped
#                    (a blanket ignore would silence future analyzers too)
#   6. equivalence   fleet runners must be byte-identical serial vs
#                    GOMAXPROCS-parallel (see docs/PERFORMANCE.md)
#   7. shards        sharded fleet aggregation must be byte-identical for
#                    any shard count (-shards 1 vs 2/4/32 fleet JSON at
#                    N=32, exact and streaming paths, under -race)
#   8. timeline      flight-recorder exports must be byte-identical
#                    across repeat runs and worker counts
#   9. transport     the transport layer's two contracts: zero-cost
#                    transport is byte-identical to no transport at every
#                    level (session, timeline golden, fleet JSON), and the
#                    transport comparison is byte-identical across worker
#                    counts and repeats with the documented delta ordering
#  10. live          the live subsystem's two contracts: zero-cost live
#                    (nil config) is byte-identical to pre-live output at
#                    every level (session stats, timeline golden, fleet
#                    JSON, shard equivalence), and the LL-ABR comparison
#                    is deterministic with the documented orderings
#  11. shaping       the offline-chunking stage's two contracts: the same
#                    seed yields a byte-identical plan at any worker count
#                    (shaping-determinism), and content without shaping
#                    keeps byte-identical manifests and chunk sizes
#                    (uniform zero-cost, pinned by the golden manifests)
#  12. benchmem      fleet benchmarks, the MPC decision benchmark and the
#                    engine fleet-mix, engine lane-mix and uplink-tick
#                    benchmarks compile and run once, so the allocs/op
#                    trajectory is always measurable
#  13. allocs        the allocation ratchets (TestFleetAllocsPerSession's
#                    allocs and bytes per session, TestComputeAllocs,
#                    TestPlayAllocs' allocs and bytes per Play of every
#                    solo-sweep variant, TestPlayStateCrossesGoroutines, a
#                    warm Play on a goroutine other than the last Play's,
#                    TestNewModelAllocs, one allocation per NewModel of
#                    every kind, TestModelNamesAllocFree, no allocation
#                    per Name, the MPC's TestMPCBoundTableBuiltOnce, a new
#                    model's first decision allocation-free, the
#                    transport's TestConnReconnectStrikeAllocFree, the
#                    edge's TestMissEvictSteadyStateAllocs, the engine's
#                    TestEngineReuseAllocFree, no new event, transfer or
#                    leaf in a second cell on a reset engine, and the
#                    fleet's TestSessionReuseAllocFree, no new Session,
#                    chunk log, connection or blacklist in a second cell on
#                    a warm shard, and the player's TestSessionSizeClasses,
#                    a Session, which a Pool always makes with its spare
#                    parts, within the 1,536-byte malloc size class), with
#                    the tests of the shard state a Run takes from and puts
#                    back on the free stack those fleet pins read warm
#                    (TestRunOnReusedStateMatchesFresh, a sequence of
#                    differing fleets on reused state byte-equal to fresh
#                    state; TestExactResultOutlivesLaterRuns, an exact-path
#                    Result unchanged by later Runs;
#                    TestFailedRunGivesNoStateBack; TestParallelRunsMatchSerial;
#                    TestFreeShardSimHoldsNoCallerPointer, a free state
#                    pins nothing of its last Run; the edge's
#                    TestEdgeResetMatchesNewEdge), through ratchets, without
#                    the race detector, which changes allocation counts:
#                    step 3 skips the tests built only without it, and runs
#                    the others under it
#  14. fma off       the golden-bearing packages pass again with
#                    GODEBUG=cpu.fma=off, without the race detector: on
#                    amd64 math.Exp (and Pow through it) takes an FMA
#                    assembly path when the CPU has AVX and FMA, so the
#                    goldens must not depend on which path ran
#  15. bench module  the benchmark's separate Go module (bench/) vets and
#                    passes its tests against the current tree; the root
#                    go build ./... does not compile it
#
# Steps 6-11 run named tests through gate, and step 13 through ratchets,
# which first fail the step if any listed name matches no test in the
# step's packages: go test -run with a name that matches nothing passes
# silently, so a renamed test would otherwise empty its step without
# notice.
#
# Exits non-zero on the first failing step.
set -eu
cd "$(dirname "$0")"

# requirenames NAMES FLAGS PACKAGES... exits unless every name in NAMES (a
# -run pattern of '|'-separated names, each matched as go test -run
# matches it) matches at least one test in PACKAGES built with FLAGS.
requirenames() {
	names=$1
	flags=$2
	shift 2
	listed=$(go test $flags -list "$names" "$@")
	for name in $(echo "$names" | tr '|' ' '); do
		if ! printf '%s\n' "$listed" | grep -E '^(Test|Example|Fuzz)' | grep -q -- "$name"; then
			echo "check.sh: name $name matches no test in $*" >&2
			exit 1
		fi
	done
}

# gate NAMES PACKAGES... runs the tests NAMES under the race detector,
# after checking that every name matches at least one test.
gate() {
	names=$1
	shift
	requirenames "$names" -race "$@"
	go test -race -count=1 -run "$names" "$@"
}

# ratchets NAMES PACKAGES... runs the tests NAMES without the race
# detector, after checking that every name matches at least one test.
ratchets() {
	names=$1
	shift
	requirenames "$names" "" "$@"
	go test -count=1 -run "$names" "$@"
}

echo "== gofmt -l (every .go file outside build output)"
# .bench_build holds the benchmark's Go caches, which are not ours to format.
unformatted=$(find . -path ./.bench_build -prune -o -name '*.go' -print | xargs gofmt -l)
if [ -n "$unformatted" ]; then
	echo "$unformatted"
	echo "check.sh: the files above are not gofmt-formatted — run gofmt -w on them" >&2
	exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test -race ./..."
go test -race ./...

echo "== go run ./cmd/vetabr ./..."
go run ./cmd/vetabr ./...

echo "== suppression scope (no unscoped //lint:ignore)"
# Every directive must name its rule(s): '//lint:ignore <rule>[,rule] <reason>'.
# The engine already rejects missing reasons (bad-suppression); this guards
# the other half — a bare or 'all'-scoped ignore that would also silence
# analyzers added later.
if grep -rn --include='*.go' -E '//lint:ignore([[:space:]]+all([[:space:]]|$)|[[:space:]]*$)' cmd internal; then
	echo "check.sh: unscoped //lint:ignore directive(s) above — scope each to a rule with a reason" >&2
	exit 1
fi

echo "== parallel-vs-serial equivalence (incl. fault-injection and fleet determinism)"
gate 'TestParallelEquivalence|TestCacheSweepParallelMatchesSerial|TestMapCollectsInSubmissionOrder|TestResilienceSweepDeterministic|TestResilienceSweepParallelEquivalence|TestFleetScaleParallelEquivalence|TestFleetDeterministic' \
	./internal/experiments ./internal/cdnsim ./internal/runpool ./internal/fleet

echo "== shard equivalence (-shards 1 vs 2/4/32 byte-identical fleet JSON at N=32)"
gate 'TestFleetShardEquivalence' ./internal/fleet

echo "== timeline determinism (flight-recorder exports byte-identical across runs and worker counts)"
gate 'TestTimeline' \
	./internal/timeline ./internal/fleet ./cmd/abrsim

echo "== transport gates (zero-cost off-equivalence + deterministic delta ordering)"
gate 'TestZeroCostTransport|TestConnZeroCostTransport|TestTimelineZeroCostTransport|TestFleetZeroCostTransport|TestFleetShardEquivalenceWithTransport|TestTransportComparisonDeterminism|TestTransportDeltaOrdering' \
	./internal/netsim ./internal/player ./internal/timeline ./internal/fleet ./internal/experiments

echo "== live gates (zero-cost off-equivalence + deterministic LL orderings)"
gate 'TestLiveOffLeavesNoStats|TestFleetZeroCostLive|TestFleetShardEquivalenceLive|TestFleetLiveAggregates|TestLiveComparisonDeterminism|TestLiveModelOrdering|TestLiveDeltaOrdering|TestTimelineGoldenLive' \
	./internal/player ./internal/fleet ./internal/experiments ./internal/timeline

echo "== shaping gates (seeded plan determinism + uniform zero-cost contract)"
gate 'TestShapingDeterminism|TestLadderParallelDeterminism|TestFixedSpecKeepsUniformContract|TestGoldenMPD|TestGoldenMaster|TestGoldenMediaPlaylist' \
	./internal/shaping ./internal/experiments ./internal/manifest/dash ./internal/manifest/hls

echo "== benchmem smoke (1 iteration per fleet benchmark, the MPC decision benchmark and the netsim layer benchmarks)"
go test -run=NONE -bench 'BenchmarkBandwidthSweep|BenchmarkSeedSweep|BenchmarkCDNCacheSweep|BenchmarkFleet|BenchmarkLiveSession' \
	-benchtime=1x -benchmem .
go test -run=NONE -bench 'BenchmarkMPCSelectCombo' -benchtime=1x -benchmem ./internal/abr/jointabr
go test -run=NONE -bench 'BenchmarkEngineFleetMix|BenchmarkEngineLaneMix|BenchmarkUplinkTick' -benchtime=1x -benchmem ./internal/netsim

echo "== allocation ratchets (allocs and bytes per fleet session, allocs per Compute, allocs and bytes per Play, a warm Play across goroutines, allocs per NewModel and per Name, MPC's bound table built once, allocs per reconnect and per edge miss, engine reuse across cells, session reuse across cells, the pooled Session's size class, shard state reused across Runs, no race detector)"
ratchets 'TestFleetAllocsPerSession|TestComputeAllocs|TestPlayAllocs|TestPlayStateCrossesGoroutines|TestNewModelAllocs|TestModelNamesAllocFree|TestMPCBoundTableBuiltOnce|TestConnReconnectStrikeAllocFree|TestMissEvictSteadyStateAllocs|TestEngineReuseAllocFree|TestSessionReuseAllocFree|TestSessionSizeClasses|TestRunOnReusedStateMatchesFresh|TestExactResultOutlivesLaterRuns|TestFailedRunGivesNoStateBack|TestParallelRunsMatchSerial|TestFreeShardSimHoldsNoCallerPointer|TestEdgeResetMatchesNewEdge' \
	./internal/fleet ./internal/qoe ./internal/core ./internal/abr/jointabr ./internal/netsim ./internal/cdnsim ./internal/player

echo "== golden tests with FMA off (GODEBUG=cpu.fma=off, no race detector)"
GODEBUG=cpu.fma=off go test -count=1 ./cmd/paperfigs ./internal/manifest/... ./internal/timeline \
	./internal/fleet ./internal/player ./internal/netsim ./internal/core ./examples/...

echo "== bench module (go vet + go test in bench/, a separate module)"
(cd bench && go vet . && go test -count=1 ./...)

echo "check.sh: all gates passed"
