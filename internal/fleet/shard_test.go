package fleet

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"time"

	"demuxabr/internal/media"
	"demuxabr/internal/netsim"
	"demuxabr/internal/trace"
)

// cellConfig is baseConfig cut into 8-session contention cells: each cell
// gets a bottleneck sized like an 8-session baseConfig fleet, so the cells
// genuinely contend internally.
func cellConfig(n int) Config {
	cfg := baseConfig(n)
	cfg.CellSessions = 8
	cfg.UplinkProfile = trace.Fixed(media.Kbps(6000 * 8))
	return cfg
}

// TestFleetShardEquivalence is the tentpole's determinism pin (and the
// check.sh gate): at N=32 with 8-session cells, -shards 1 and -shards 4
// must produce byte-identical fleet JSON, on both the exact-retention path
// and the streaming sketch path.
func TestFleetShardEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name     string
		retained int
	}{
		{"exact", 0},      // default threshold: 32 sessions are retained
		{"streaming", -1}, // force the sketch path at N=32
	} {
		t.Run(tc.name, func(t *testing.T) {
			var ref []byte
			for _, shards := range []int{1, 2, 4, 32} {
				cfg := cellConfig(32)
				cfg.MaxRetained = tc.retained
				cfg.Shards = shards
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				got := fleetJSON(t, res)
				if ref == nil {
					ref = got
					continue
				}
				if !bytes.Equal(ref, got) {
					t.Fatalf("shards=%d fleet JSON differs from shards=1 (%d vs %d bytes)",
						shards, len(got), len(ref))
				}
			}
		})
	}
}

// TestFleetCellAssignmentPure pins that cell assignment depends only on
// (Seed, Sessions, CellSessions): a permutation cut into sorted chunks that
// partitions exactly the ID set, reproducibly.
func TestFleetCellAssignmentPure(t *testing.T) {
	cfg := cellConfig(50)
	if err := cfg.setDefaults(); err != nil {
		t.Fatal(err)
	}
	a, b := cfg.cells(), cfg.cells()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("cell assignment not reproducible")
	}
	seen := map[int]bool{}
	for _, cell := range a {
		for i := 1; i < len(cell); i++ {
			if cell[i] <= cell[i-1] {
				t.Fatalf("cell %v not strictly ascending", cell)
			}
		}
		for _, id := range cell {
			if seen[id] {
				t.Fatalf("session %d assigned twice", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != 50 {
		t.Fatalf("%d sessions assigned, want 50", len(seen))
	}
	other := cellConfig(50)
	other.Seed = 99
	if err := other.setDefaults(); err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, other.cells()) {
		t.Fatal("different seeds produced identical cell permutations")
	}
}

// TestFleetStreamingMatchesExactWithinError runs the same fleet on both
// aggregation paths and checks the sketch distributions stay within their
// documented error of the exact ones (Jain and the integer counters must be
// exact, minus float fold-order noise in Jain).
func TestFleetStreamingMatchesExactWithinError(t *testing.T) {
	cfg := cellConfig(32)
	exact, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgS := cellConfig(32)
	cfgS.MaxRetained = -1
	streamed, err := Run(cfgS)
	if err != nil {
		t.Fatal(err)
	}
	if !streamed.Streamed || len(streamed.Sessions) > sampledRows {
		t.Fatalf("forced streaming run retained %d rows (streamed %v), want at most %d", len(streamed.Sessions), streamed.Streamed, sampledRows)
	}
	if exact.Completed != streamed.Completed {
		t.Fatalf("completed %d vs %d", exact.Completed, streamed.Completed)
	}
	if exact.Cache != streamed.Cache {
		t.Fatalf("cache stats diverged: %+v vs %+v", exact.Cache, streamed.Cache)
	}
	if d := math.Abs(exact.Fleet.JainVideoKbps - streamed.Fleet.JainVideoKbps); d > 1e-9 {
		t.Fatalf("jain diverged by %v", d)
	}
	// Sketch bin widths: 2.5e-3 score, 2.5 kbps, 0.5 s rebuffer, 50 ms startup.
	checks := []struct {
		name       string
		exact, got float64
		bound      float64
	}{
		{"score median", exact.Fleet.Score.Median, streamed.Fleet.Score.Median, 2.5e-3},
		{"score p90", exact.Fleet.Score.P90, streamed.Fleet.Score.P90, 2.5e-3},
		{"video median", exact.Fleet.VideoKbps.Median, streamed.Fleet.VideoKbps.Median, 2.5},
		{"audio median", exact.Fleet.AudioKbps.Median, streamed.Fleet.AudioKbps.Median, 2.5},
		{"rebuffer p90", exact.Fleet.RebufferSeconds.P90, streamed.Fleet.RebufferSeconds.P90, 0.5},
		{"startup median", exact.Fleet.StartupSeconds.Median, streamed.Fleet.StartupSeconds.Median, 0.05},
	}
	for _, c := range checks {
		if d := math.Abs(c.exact - c.got); d > c.bound+1e-9 {
			t.Errorf("%s: exact %.4f sketch %.4f, error %.4f > bound %.4f", c.name, c.exact, c.got, d, c.bound)
		}
	}
	// Exact extremes survive sketching bit-for-bit.
	if exact.Fleet.VideoKbps.Min != streamed.Fleet.VideoKbps.Min ||
		exact.Fleet.VideoKbps.Max != streamed.Fleet.VideoKbps.Max {
		t.Error("sketch min/max not exact")
	}
	// The reservoir rows must be real sessions: every sampled row must
	// equal the exact run's row for that ID.
	byID := map[int]SessionSample{}
	for _, s := range exact.Sessions {
		byID[s.ID] = s
	}
	if len(streamed.Sessions) != 32 {
		t.Fatalf("sampled %d rows, want all 32 (fleet smaller than reservoir)", len(streamed.Sessions))
	}
	for _, s := range streamed.Sessions {
		ref, ok := byID[s.ID]
		if !ok {
			t.Fatalf("sampled unknown session %d", s.ID)
		}
		if s != ref {
			t.Fatalf("sampled row %d diverges from exact run:\nsample %+v\nexact  %+v", s.ID, s, ref)
		}
	}
}

// TestFleetMultiCellSoloEquivalence pins the cell decomposition itself:
// with CellSessions=1 and no cache/uplink sharing possible, each session
// must match its own standalone single-session fleet exactly.
func TestFleetMultiCellSoloEquivalence(t *testing.T) {
	cfg := baseConfig(3)
	cfg.ArrivalSpread = 0
	cfg.CellSessions = 1
	cfg.UplinkProfile = trace.Fixed(media.Kbps(6000))
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cells != 3 {
		t.Fatalf("cells=%d, want 3", res.Cells)
	}
	solo := baseConfig(1)
	solo.ArrivalSpread = 0
	solo.UplinkProfile = trace.Fixed(media.Kbps(6000))
	ref, err := Run(solo)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Sessions {
		if s.Metrics != ref.Sessions[0].Metrics {
			t.Fatalf("session %d in 1-session cells diverges from standalone run", s.ID)
		}
	}
}

// TestFleetRepeatRunsByteIdentical re-runs the same sharded streaming
// config and compares full JSON — the repeat-run half of the acceptance
// criterion.
func TestFleetRepeatRunsByteIdentical(t *testing.T) {
	mk := func() []byte {
		cfg := cellConfig(24)
		cfg.MaxRetained = -1
		cfg.Shards = 3
		cfg.Timeline = true
		cfg.SampleTimelines = 4
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return fleetJSON(t, res)
	}
	a, b := mk(), mk()
	if !bytes.Equal(a, b) {
		t.Fatal("repeat streaming runs produced different JSON")
	}
}

// TestFleetSampledTimelines is the sampled-recorder satellite: only every
// k-th session allocates a recorder, uplink recorders appear only for cells
// containing a sampled session, and ordering is sessions-then-uplinks.
func TestFleetSampledTimelines(t *testing.T) {
	cfg := cellConfig(32)
	cfg.Timeline = true
	cfg.SampleTimelines = 8
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for id := 0; id < 32; id++ {
		if cfg.sampledTimeline(id) {
			want++
		}
	}
	if want != 4 {
		t.Fatalf("sampling phase broken: %d of 32 sampled with k=8", want)
	}
	var sessionRecs, uplinkRecs int
	for _, rec := range res.Recorders {
		if rec.Session() < cfg.Sessions {
			sessionRecs++
			if !cfg.sampledTimeline(rec.Session()) {
				t.Errorf("unsampled session %d has a recorder", rec.Session())
			}
			if uplinkRecs > 0 {
				t.Error("session recorder after an uplink recorder")
			}
			if len(rec.Events()) == 0 {
				t.Errorf("sampled session %d recorded nothing", rec.Session())
			}
		} else {
			uplinkRecs++
		}
	}
	if sessionRecs != want {
		t.Errorf("%d session recorders, want %d", sessionRecs, want)
	}
	if uplinkRecs == 0 || uplinkRecs > res.Cells {
		t.Errorf("%d uplink recorders for %d cells", uplinkRecs, res.Cells)
	}
	// k=1 keeps the legacy everyone-records layout.
	cfg1 := cellConfig(16)
	cfg1.Timeline = true
	cfg1.SampleTimelines = 1
	res1, err := Run(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Recorders) != 16+res1.Cells {
		t.Errorf("k=1: %d recorders, want %d sessions + %d uplinks", len(res1.Recorders), 16, res1.Cells)
	}
}

// TestFleetConfigGuardsSharding extends the config guards to the new knobs.
func TestFleetConfigGuardsSharding(t *testing.T) {
	for _, mut := range []func(*Config){
		func(c *Config) { c.CellSessions = -1 },
		func(c *Config) { c.Shards = -2 },
		func(c *Config) { c.SampleTimelines = -3 },
	} {
		cfg := baseConfig(2)
		mut(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Error("negative knob accepted")
		}
	}
	// Oversized cells clamp to the fleet: one cell, exact path.
	cfg := baseConfig(2)
	cfg.CellSessions = 100
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cells != 1 || res.Streamed {
		t.Fatalf("cells=%d streamed=%v, want single exact cell", res.Cells, res.Streamed)
	}
}

// TestFleetStreamedReportShape checks the sketch-path report: aggregation
// marker, sampled per_session table, and a completed-score distribution.
func TestFleetStreamedReportShape(t *testing.T) {
	cfg := cellConfig(24)
	cfg.MaxRetained = -1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := res.Report("drama-show")
	if f.Aggregation != "sketch" {
		t.Fatalf("aggregation %q, want sketch", f.Aggregation)
	}
	if f.Cells != 3 {
		t.Fatalf("cells %d, want 3", f.Cells)
	}
	if f.SampledSessions != len(f.PerSession) || f.SampledSessions == 0 {
		t.Fatalf("sampled_sessions %d vs %d rows", f.SampledSessions, len(f.PerSession))
	}
	if f.Sessions != 24 {
		t.Fatalf("sessions %d, want 24", f.Sessions)
	}
	if res.Completed > 0 && f.ScoreCompleted.Mean == 0 {
		t.Error("completed-score distribution empty despite completions")
	}
	// Exact path emits none of the new fields (golden compatibility).
	exact, err := Run(baseConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	fe := exact.Report("drama-show")
	if fe.Aggregation != "" || fe.Cells != 0 || fe.SampledSessions != 0 {
		t.Fatalf("exact single-cell report leaked new fields: %q %d %d", fe.Aggregation, fe.Cells, fe.SampledSessions)
	}
}

// TestFleetDefaultShardsMatchExplicit pins that the Shards=0 default (one
// worker per core) cannot change output relative to any explicit value.
func TestFleetDefaultShardsMatchExplicit(t *testing.T) {
	auto := cellConfig(16)
	res, err := Run(auto)
	if err != nil {
		t.Fatal(err)
	}
	expl := cellConfig(16)
	expl.Shards = 2
	res2, err := Run(expl)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fleetJSON(t, res), fleetJSON(t, res2)) {
		t.Fatal("default and explicit shard counts diverge")
	}
}

// TestFleetShardEquivalenceWithTransport re-pins the shard-count contract
// with the transport layer on: per-session connections (reseeded loss
// draws, access RTT, keep-alive bookkeeping) must stay a pure function of
// the session ID, so the aggregate JSON cannot depend on which shard ran
// which cell.
func TestFleetShardEquivalenceWithTransport(t *testing.T) {
	var ref []byte
	for _, shards := range []int{1, 2, 4} {
		cfg := cellConfig(32)
		cfg.Shards = shards
		tc := netsim.DefaultTransport(netsim.H1)
		tc.IdleTimeout = 700 * time.Millisecond
		tc.LossRate = 0.02
		tc.Seed = 4099
		cfg.Transport = &tc
		cfg.AccessRTT = 40 * time.Millisecond
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		got := fleetJSON(t, res)
		if ref == nil {
			ref = got
			continue
		}
		if !bytes.Equal(ref, got) {
			t.Fatalf("shards=%d transport fleet JSON differs from shards=1 (%d vs %d bytes)",
				shards, len(got), len(ref))
		}
	}
}

// TestFleetZeroCostTransportEquivalence is the fleet half of the
// transport-off contract: a fleet run through all-zero-cost H1 transport
// (free setup, no keep-alive expiry, no loss) must produce JSON
// byte-identical to the same fleet with no transport at all.
func TestFleetZeroCostTransportEquivalence(t *testing.T) {
	run := func(tc *netsim.TransportConfig) []byte {
		cfg := cellConfig(16)
		cfg.Transport = tc
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return fleetJSON(t, res)
	}
	bare := run(nil)
	zeroed := run(&netsim.TransportConfig{Protocol: netsim.H1, MaxStreams: 1})
	if !bytes.Equal(bare, zeroed) {
		t.Fatal("zero-cost transport fleet diverged from the bare fleet")
	}
}
