package player_test

import (
	"slices"
	"testing"
	"time"

	"demuxabr/internal/core"
	"demuxabr/internal/experiments"
	"demuxabr/internal/faults"
	"demuxabr/internal/media"
	"demuxabr/internal/netsim"
	"demuxabr/internal/player"
	"demuxabr/internal/timeline"
)

// TestRecycledSessionEveryKind plays every player kind the five ways
// runRecycled compares, the last on a Session object another session
// finished and released, with every resilient request stage on: H1
// connections that lose packets and idle out, a fault plan over every
// fault kind, the default retry policy, and a recorder. Live kinds run
// with the live experiments' preset. Result, its JSON and the recorded
// events must not depend on the way.
func TestRecycledSessionEveryKind(t *testing.T) {
	c := requestPathContent()
	pol := faults.DefaultPolicy()
	h1 := netsim.DefaultTransport(netsim.H1)
	h1.LossRate, h1.IdleTimeout, h1.Seed = 0.05, 700*time.Millisecond, 7
	plan := &faults.Plan{Seed: 11, Rate: 0.05, Kinds: append(faults.AllKinds(), faults.TransportKinds()...)}
	for _, kind := range core.PlayerKinds() {
		t.Run(string(kind), func(t *testing.T) {
			res, _ := player.RunRecycled(t, string(kind), func(pool *player.Pool, eng *netsim.Engine) (*player.Session, *netsim.Engine) {
				model, _, err := core.BuildModel(kind, c, core.ManifestOptions{})
				if err != nil {
					t.Fatal(err)
				}
				cfg := player.Config{
					Content: c, Model: model, Robustness: &pol, Transport: &h1, FaultPlan: plan,
					Recorder: timeline.New(0, string(kind)),
				}
				if slices.Contains(experiments.LiveModels(), kind) {
					cfg.Live = experiments.LiveConfig()
				}
				return player.StartOn(t, pool, eng, cfg, media.Kbps(2000), 50*time.Millisecond, false)
			})
			if len(res.Faults) == 0 || res.Retries == 0 || res.Transport == nil || res.Transport.Handshakes == 0 {
				t.Fatalf("%d faults, %d retries, transport %+v: the session no longer runs every resilient stage",
					len(res.Faults), res.Retries, res.Transport)
			}
		})
	}
}
