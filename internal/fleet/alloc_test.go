//go:build !race

package fleet_test

import (
	"runtime"
	"testing"

	"demuxabr/internal/fleet"
	"demuxabr/internal/ledger"
)

// TestFleetAllocsPerSession pins the allocations and the bytes allocated
// per session of four small fleets shaped like the benchmark's fleet
// workloads, request lifecycle included: the four joint models behind one
// uplink and edge, in 16-session cells. The vod row is fleet-vod's
// deployment; the resilient row turns on every optional request stage as
// fleet-resilient does (H1 connections that idle out and lose packets, a
// fault plan over every kind, the default retry policy, an edge that
// evicts); the live row runs fleet-live's low-latency trio in live mode.
// These three aggregate by the streaming path; the exact row is the vod
// fleet on the exact path, which keeps every session's row instead of
// sketches and a reservoir sample. Each measured run takes the
// shard state the run before it put back (see
// TestRunOnReusedStateMatchesFresh), so every cell is warm: its sessions
// start on Session objects, events, transfers, leaves and cache slots
// that earlier cells released, and what is left is what each session
// keeps or builds anew, its model first.
//
// allocs/op is deterministic, so any regression in the request stages or
// the aggregation shows here (the manifests are parsed once per process,
// and the first shard state built, in the warm-up run). Bytes per session
// are read from runtime.MemStats.TotalAlloc over one warm run. The pins
// are rows of the ratchet ledger (docs/PERFORMANCE.md): lower them when a
// change cuts allocations; never raise them to make a regression pass. The race detector changes allocation counts, so the
// test is built only without it (check.sh runs it in a step of its own).
func TestFleetAllocsPerSession(t *testing.T) {
	pins := ledger.For(t)
	exact := fleet.VodFleet()
	exact.MaxRetained = 0
	for _, row := range []struct {
		name string
		cfg  fleet.Config
	}{
		{"vod", fleet.VodFleet()},
		{"resilient", fleet.ResilientFleet()},
		{"live", liveFleet()},
		{"exact", exact},
	} {
		allocPin, bytePin := pins.Bound(row.name, "allocs"), pins.Bound(row.name, "bytes")
		t.Run(row.name, func(t *testing.T) {
			cfg := row.cfg
			var err error
			allocs := testing.AllocsPerRun(3, func() { _, err = fleet.Run(cfg) })
			if err != nil {
				t.Fatal(err)
			}
			perSession := allocs / float64(cfg.Sessions)
			t.Logf("%.1f allocs per session", perSession)
			if perSession > allocPin {
				t.Errorf("%.1f allocs per session, pinned at %.1f", perSession, allocPin)
			}

			// AllocsPerRun has warmed the process (manifests parsed, key
			// tables built), so this run allocates only what every
			// session does.
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err = fleet.Run(cfg)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(cfg.Sessions)
			t.Logf("%.0f bytes allocated per session", bytes)
			if bytes > bytePin {
				t.Errorf("%.0f bytes allocated per session, pinned at %.0f", bytes, bytePin)
			}
		})
	}
}
