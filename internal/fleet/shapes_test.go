package fleet

import (
	"time"

	"demuxabr/internal/cdnsim"
	"demuxabr/internal/core"
	"demuxabr/internal/faults"
	"demuxabr/internal/media"
	"demuxabr/internal/netsim"
	"demuxabr/internal/player"
	"demuxabr/internal/trace"
)

// vodFleet is a small streaming fleet shaped like the benchmark's
// fleet-vod: 32 sessions of the four joint models behind one uplink and
// edge, in 16-session cells on one shard.
func vodFleet() Config {
	return Config{
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
}

// resilientFleet is vodFleet with every optional request stage on, as
// fleet-resilient: H1 connections that idle out and lose packets, a fault
// plan over every kind, the default retry policy and an edge that evicts.
func resilientFleet() Config {
	cfg := vodFleet()
	cfg.CacheBytes = 8 << 20
	tc := netsim.DefaultTransport(netsim.H1)
	tc.IdleTimeout = 700 * time.Millisecond
	tc.LossRate = 0.02
	cfg.Transport = &tc
	cfg.AccessRTT = 200 * time.Millisecond
	cfg.FaultPlan = &faults.Plan{Seed: 17, Rate: 0.02, Kinds: append(faults.AllKinds(), faults.TransportKinds()...)}
	pol := faults.DefaultPolicy()
	cfg.Robustness = &pol
	return cfg
}

// liveFleet is vodFleet in live mode, as fleet-live, given the
// low-latency trio and the live configuration the experiments define
// (experiments.LiveModels and LiveConfig, which imports this package).
func liveFleet(mix []core.PlayerKind, live *player.LiveConfig) Config {
	cfg := vodFleet()
	cfg.Mix = mix
	cfg.Live = live
	return cfg
}
