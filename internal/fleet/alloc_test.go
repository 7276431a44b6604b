//go:build !race

package fleet

import (
	"runtime"
	"testing"
	"time"

	"demuxabr/internal/cdnsim"
	"demuxabr/internal/core"
	"demuxabr/internal/media"
	"demuxabr/internal/trace"
)

// allocsPerSessionPin and bytesPerSessionPin are the ratchets for
// TestFleetAllocsPerSession: the allocations and the bytes allocated per
// session of its fleet, request lifecycle included. Lower them when a
// change cuts allocations; never raise them to make a regression pass.
const (
	allocsPerSessionPin = 121
	bytesPerSessionPin  = 46_600
)

// TestFleetAllocsPerSession pins the allocations per session of a small
// streaming fleet shaped like the benchmark's fleet-vod: the four joint
// models behind one uplink and edge, in 16-session cells, aggregated by
// the streaming path. allocs/op is deterministic, so any regression in
// the request lifecycle or the aggregation shows here (the manifests are
// parsed once per process, in the warm-up run). Bytes per session are
// read from runtime.MemStats.TotalAlloc over one warm run. The race
// detector changes allocation counts, so the test is built only without
// it (check.sh runs it in a step of its own).
func TestFleetAllocsPerSession(t *testing.T) {
	cfg := Config{
		Content:       media.DramaShow(),
		Sessions:      32,
		Mix:           []core.PlayerKind{core.BestPractice, core.BolaJoint, core.MPCJoint, core.DynamicJoint},
		Mode:          cdnsim.Demuxed,
		CacheBytes:    256 << 20,
		MissPenalty:   60 * time.Millisecond,
		UplinkProfile: trace.Fixed(media.Kbps(24_000)),
		AccessProfile: trace.Fixed(media.Kbps(6_000)),
		ArrivalSpread: 30 * time.Second,
		Seed:          17,
		CellSessions:  16,
		Shards:        1,
		MaxRetained:   -1,
	}
	var err error
	allocs := testing.AllocsPerRun(3, func() { _, err = Run(cfg) })
	if err != nil {
		t.Fatal(err)
	}
	perSession := allocs / float64(cfg.Sessions)
	t.Logf("%.1f allocs per session", perSession)
	if perSession > allocsPerSessionPin {
		t.Errorf("%.1f allocs per session, pinned at %d", perSession, allocsPerSessionPin)
	}

	// AllocsPerRun has warmed the process (manifests parsed, key tables
	// built), so this run allocates only what every session does.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = Run(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(cfg.Sessions)
	t.Logf("%.0f bytes allocated per session", bytes)
	if bytes > bytesPerSessionPin {
		t.Errorf("%.0f bytes allocated per session, pinned at %d", bytes, bytesPerSessionPin)
	}
}
