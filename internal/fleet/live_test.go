package fleet

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"demuxabr/internal/core"
	"demuxabr/internal/player"
)

// liveConfig is cellConfig with every session in latency-target live mode
// running the low-latency trio.
func liveConfig(n int) Config {
	cfg := cellConfig(n)
	cfg.Mix = []core.PlayerKind{core.LLDefault, core.LLL2A, core.LLLoLP}
	cfg.Live = &player.LiveConfig{
		LatencyTarget: 4 * time.Second,
		PartTarget:    time.Second,
	}
	return cfg
}

// TestFleetShardEquivalenceLive re-pins the shard-count contract with live
// mode on: the latency aggregates ride a mergeable sketch and an integer
// resync total, so -shards 1 and -shards 4 must stay byte-identical on both
// the exact and the streaming aggregation paths.
func TestFleetShardEquivalenceLive(t *testing.T) {
	for _, tc := range []struct {
		name     string
		retained int
	}{
		{"exact", 0},
		{"streaming", -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var ref []byte
			for _, shards := range []int{1, 2, 4} {
				cfg := liveConfig(32)
				cfg.MaxRetained = tc.retained
				cfg.Shards = shards
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				if res.Fleet.Live == nil {
					t.Fatalf("shards=%d: live fleet carried no live aggregates", shards)
				}
				got := fleetJSON(t, res)
				if ref == nil {
					ref = got
					continue
				}
				if !bytes.Equal(ref, got) {
					t.Fatalf("shards=%d live fleet JSON differs from shards=1 (%d vs %d bytes)",
						shards, len(got), len(ref))
				}
			}
		})
	}
}

// TestFleetLiveAggregates checks the live fleet report carries the latency
// distribution and that every session produced live accounting.
func TestFleetLiveAggregates(t *testing.T) {
	res, err := Run(liveConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Fleet.Live == nil {
		t.Fatal("live fleet has no live aggregates")
	}
	if got := res.Fleet.Live.LatencySeconds.Mean; got <= 0 {
		t.Fatalf("mean live-edge latency %v, want > 0", got)
	}
	for _, s := range res.Sessions {
		if s.Metrics.Live == nil {
			t.Fatalf("session %d (%s) carried no live metrics", s.ID, s.Kind)
		}
		if s.Metrics.Live.MeanLatency <= 0 {
			t.Fatalf("session %d: mean latency %v, want > 0", s.ID, s.Metrics.Live.MeanLatency)
		}
	}
	var doc map[string]any
	if err := json.Unmarshal(fleetJSON(t, res), &doc); err != nil {
		t.Fatal(err)
	}
	if _, ok := doc["live"]; !ok {
		t.Fatal(`live fleet JSON has no "live" key`)
	}
}

// TestFleetLiveSampledRowsMatchExact: a streaming live fleet's reservoir
// rows are the exact run's rows, live summaries included. Each cell's
// sessions run on the Session objects the cell before it released, so a
// row whose summary pointed into its session's spare parts would read a
// later session's latency.
func TestFleetLiveSampledRowsMatchExact(t *testing.T) {
	cfg := liveConfig(24)
	cfg.Shards = 2
	exact, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxRetained = -1
	streamed, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !streamed.Streamed || len(streamed.Sessions) != len(exact.Sessions) {
		t.Fatalf("the streaming run sampled %d rows (streamed %v), want all %d", len(streamed.Sessions), streamed.Streamed, len(exact.Sessions))
	}
	for i, s := range streamed.Sessions {
		ref := exact.Sessions[i]
		if s.Metrics.Live == nil || ref.Metrics.Live == nil {
			t.Fatalf("session %d: a row without its live summary", s.ID)
		}
		if *s.Metrics.Live != *ref.Metrics.Live {
			t.Fatalf("session %d: sampled live summary %+v, exact %+v", s.ID, *s.Metrics.Live, *ref.Metrics.Live)
		}
		s.Metrics.Live, ref.Metrics.Live = nil, nil
		if s != ref {
			t.Fatalf("session %d: sampled row %+v, exact %+v", s.ID, s, ref)
		}
	}
}

// TestFleetZeroCostLive is the fleet half of the live-off contract: a VOD
// fleet must serialize without any live key — the document shape cannot
// change for existing users when the subsystem is off.
func TestFleetZeroCostLive(t *testing.T) {
	res, err := Run(cellConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Fleet.Live != nil {
		t.Fatal("VOD fleet unexpectedly carried live aggregates")
	}
	raw := fleetJSON(t, res)
	if bytes.Contains(raw, []byte(`"live"`)) {
		t.Fatal(`VOD fleet JSON contains a "live" key`)
	}
	for _, s := range res.Sessions {
		if s.Metrics.Live != nil {
			t.Fatalf("VOD session %d carried live metrics", s.ID)
		}
	}
}
