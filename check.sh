#!/bin/sh
# check.sh — the full verification gate, run before every merge:
#
#   0. gofmt         every Go file is gofmt-formatted (gofmt -l lists none)
#   1. go vet        standard suspicious-construct checks
#   2. go build      every package compiles
#   3. go test -race full test suite (includes TestVetABR and the
#                    determinism regression test) under the race detector
#   4. vetabr        project-specific static analysis: simclock, globalrand,
#                    maporder, rangeleak, sharedcapture, recmut, floateq,
#                    units (see docs/STATIC_ANALYSIS.md) — gated by
#                    vetabr.baseline, with a SARIF artifact written to
#                    artifacts/vetabr.sarif
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
#  12. benchmem      fleet benchmarks compile and run once, so the
#                    allocs/op trajectory is always measurable
#
# Exits non-zero on the first failing step.
set -eu
cd "$(dirname "$0")"

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

echo "== go run ./cmd/vetabr -baseline vetabr.baseline -sarif artifacts/vetabr.sarif ./..."
mkdir -p artifacts
go run ./cmd/vetabr -baseline vetabr.baseline -sarif artifacts/vetabr.sarif ./...

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
go test -race -count=1 \
	-run 'TestParallelEquivalence|TestCacheSweepParallelMatchesSerial|TestMapCollectsInSubmissionOrder|TestResilienceSweepDeterministic|TestResilienceSweepParallelEquivalence|TestFleetScaleParallelEquivalence|TestFleetDeterministic' \
	./internal/experiments ./internal/cdnsim ./internal/runpool ./internal/fleet

echo "== shard equivalence (-shards 1 vs -shards 4 byte-identical fleet JSON at N=32)"
go test -race -count=1 -run 'TestFleetShardEquivalence' ./internal/fleet

echo "== timeline determinism (flight-recorder exports byte-identical across runs and worker counts)"
go test -race -count=1 -run 'TestTimeline' \
	./internal/timeline ./internal/fleet ./cmd/abrsim

echo "== transport gates (zero-cost off-equivalence + deterministic delta ordering)"
go test -race -count=1 \
	-run 'TestZeroCostTransport|TestConnZeroCostTransport|TestTimelineZeroCostTransport|TestFleetZeroCostTransport|TestFleetShardEquivalenceWithTransport|TestTransportComparisonDeterminism|TestTransportDeltaOrdering' \
	./internal/netsim ./internal/player ./internal/timeline ./internal/fleet ./internal/experiments

echo "== live gates (zero-cost off-equivalence + deterministic LL orderings)"
go test -race -count=1 \
	-run 'TestLiveOffLeavesNoStats|TestFleetZeroCostLive|TestFleetShardEquivalenceLive|TestFleetLiveAggregates|TestLiveComparisonDeterminism|TestLiveModelOrdering|TestLiveDeltaOrdering|TestTimelineGoldenLive' \
	./internal/player ./internal/fleet ./internal/experiments ./internal/timeline

echo "== shaping gates (seeded plan determinism + uniform zero-cost contract)"
go test -race -count=1 \
	-run 'TestShapingDeterminism|TestLadderParallelDeterminism|TestFixedSpecKeepsUniformContract|TestGoldenMPD|TestGoldenMaster|TestGoldenMediaPlaylist' \
	./internal/shaping ./internal/experiments ./internal/manifest/dash ./internal/manifest/hls

echo "== benchmem smoke (1 iteration per fleet benchmark)"
go test -run=NONE -bench 'BenchmarkBandwidthSweep|BenchmarkSeedSweep|BenchmarkCDNCacheSweep|BenchmarkFleet|BenchmarkLiveSession' \
	-benchtime=1x -benchmem .

echo "check.sh: all gates passed"
