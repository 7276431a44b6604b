//go:build !race

package fleet_test

import (
	"runtime"
	"testing"
	"time"

	"demuxabr/internal/cdnsim"
	"demuxabr/internal/core"
	"demuxabr/internal/experiments"
	"demuxabr/internal/faults"
	"demuxabr/internal/fleet"
	"demuxabr/internal/media"
	"demuxabr/internal/netsim"
	"demuxabr/internal/trace"
)

// TestFleetAllocsPerSession pins the allocations and the bytes allocated
// per session of three small streaming fleets shaped like the benchmark's
// fleet workloads, request lifecycle included: the four joint models
// behind one uplink and edge, in 16-session cells, aggregated by the
// streaming path. The vod row is fleet-vod's deployment; the resilient row
// turns on every optional request stage as fleet-resilient does (H1
// connections that idle out and lose packets, a fault plan over every
// kind, the default retry policy, an edge that evicts); the live row runs
// fleet-live's low-latency trio in live mode. Each measured run takes the
// shard state the run before it put back (see
// TestRunOnReusedStateMatchesFresh), so every cell is warm: its sessions
// start on Session objects, events, transfers, leaves and cache slots
// that earlier cells released, and what is left is what each session
// keeps or builds anew, its model first.
//
// allocs/op is deterministic, so any regression in the request stages or
// the aggregation shows here (the manifests are parsed once per process,
// and the first shard state built, in the warm-up run). Bytes per session
// are read from runtime.MemStats.TotalAlloc over one warm run. The pins are ratchets:
// lower them when a change cuts allocations; never raise them to make a
// regression pass. The race detector changes allocation counts, so the
// test is built only without it (check.sh runs it in a step of its own).
func TestFleetAllocsPerSession(t *testing.T) {
	vod := fleet.Config{
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
	resilient := vod
	resilient.CacheBytes = 8 << 20
	tc := netsim.DefaultTransport(netsim.H1)
	tc.IdleTimeout = 700 * time.Millisecond
	tc.LossRate = 0.02
	resilient.Transport = &tc
	resilient.AccessRTT = 200 * time.Millisecond
	resilient.FaultPlan = &faults.Plan{
		Seed:  17,
		Rate:  0.02,
		Kinds: append(faults.AllKinds(), faults.TransportKinds()...),
	}
	pol := faults.DefaultPolicy()
	resilient.Robustness = &pol
	live := vod
	live.Mix = experiments.LiveModels()
	live.Live = experiments.LiveConfig()

	for _, row := range []struct {
		name              string
		cfg               fleet.Config
		allocPin, bytePin float64
	}{
		{"vod", vod, 3.0, 3_500},
		{"resilient", resilient, 3.0, 3_500},
		{"live", live, 3.0, 3_500},
	} {
		t.Run(row.name, func(t *testing.T) {
			cfg := row.cfg
			var err error
			allocs := testing.AllocsPerRun(3, func() { _, err = fleet.Run(cfg) })
			if err != nil {
				t.Fatal(err)
			}
			perSession := allocs / float64(cfg.Sessions)
			t.Logf("%.1f allocs per session", perSession)
			if perSession > row.allocPin {
				t.Errorf("%.1f allocs per session, pinned at %.1f", perSession, row.allocPin)
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
			if bytes > row.bytePin {
				t.Errorf("%.0f bytes allocated per session, pinned at %.0f", bytes, row.bytePin)
			}
		})
	}
}
