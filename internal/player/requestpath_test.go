package player_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"demuxabr/internal/cdnsim"
	"demuxabr/internal/core"
	"demuxabr/internal/faults"
	"demuxabr/internal/fleet"
	"demuxabr/internal/media"
	"demuxabr/internal/netsim"
	"demuxabr/internal/player"
	"demuxabr/internal/qoe"
	"demuxabr/internal/timeline"
	"demuxabr/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/request_path.golden")

// requestPathContent is a short asset (120 s, 2 s chunks, 3x2 ladder): small
// enough to keep every row fast, with enough rungs for abandonment and
// failover to have somewhere to go.
func requestPathContent() *media.Content {
	return media.MustNewContent(media.ContentSpec{
		Name:          "request-path",
		Duration:      120 * time.Second,
		ChunkDuration: 2 * time.Second,
		VideoTracks: media.Ladder{
			{ID: "V1", Type: media.Video, AvgBitrate: media.Kbps(300), PeakBitrate: media.Kbps(450), DeclaredBitrate: media.Kbps(450), Resolution: "360p"},
			{ID: "V2", Type: media.Video, AvgBitrate: media.Kbps(800), PeakBitrate: media.Kbps(1100), DeclaredBitrate: media.Kbps(1100), Resolution: "480p"},
			{ID: "V3", Type: media.Video, AvgBitrate: media.Kbps(1800), PeakBitrate: media.Kbps(2500), DeclaredBitrate: media.Kbps(2500), Resolution: "720p"},
		},
		AudioTracks: media.Ladder{
			{ID: "A1", Type: media.Audio, AvgBitrate: media.Kbps(64), PeakBitrate: media.Kbps(72), DeclaredBitrate: media.Kbps(72), Channels: 2, SampleRateHz: 44100},
			{ID: "A2", Type: media.Audio, AvgBitrate: media.Kbps(192), PeakBitrate: media.Kbps(210), DeclaredBitrate: media.Kbps(210), Channels: 2, SampleRateHz: 48000},
		},
		Model: media.ChunkModel{Seed: 11, Spread: 0.2, PeakEvery: 4},
	})
}

// requestPathRow is one pinned scenario: one player session, or a fleet
// that returns the recorders to export and the value whose JSON encoding
// pins the outcome (the fleet's session rows).
type requestPathRow struct {
	name string
	// want lists event kinds the row exists to exercise; a row whose
	// recording lacks one of them no longer covers its path.
	want    []timeline.Kind
	session *playerSession
	fleet   func(t *testing.T) ([]*timeline.Recorder, any)
}

// record runs the row for the golden: a session keeps its timeline.
func (row requestPathRow) record(t *testing.T) ([]*timeline.Recorder, any) {
	t.Helper()
	if row.session == nil {
		return row.fleet(t)
	}
	rec, res, _ := row.session.play(t, true)
	return []*timeline.Recorder{rec}, res
}

// playerSession is one session on a fresh engine and link, run through
// player.Run with the same recorder, if any, on the link and the session.
type playerSession struct {
	kind    core.PlayerKind
	profile trace.Profile
	rtt     time.Duration
	cfg     player.Config
}

// play runs the session with a recorder, keeping its timeline if asked,
// and scores it against the manifest's combinations.
func (p playerSession) play(t *testing.T, keep bool) (*timeline.Recorder, *player.Result, qoe.Metrics) {
	t.Helper()
	rec := timeline.New(0, "session")
	res, m := p.run(t, keep, rec)
	return rec, res, m
}

// run runs the session with rec (nil: none) on the session and its link.
func (p playerSession) run(t *testing.T, keep bool, rec *timeline.Recorder) (*player.Result, qoe.Metrics) {
	t.Helper()
	c := requestPathContent()
	model, allowed, err := core.BuildModel(p.kind, c, core.ManifestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eng := netsim.NewEngine()
	link := netsim.NewLink(eng, p.profile)
	link.RTT = p.rtt
	if rec != nil {
		link.SetRecorder(rec, "link")
	}
	cfg := p.cfg
	cfg.Content, cfg.Model, cfg.Recorder, cfg.KeepTimeline = c, model, rec, keep
	res, err := player.Run(link, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, qoe.Compute(res, c, allowed, qoe.DefaultWeights())
}

func requestPathRows() []requestPathRow {
	pol := faults.DefaultPolicy()
	h1 := netsim.DefaultTransport(netsim.H1)
	h2 := netsim.DefaultTransport(netsim.H2)
	dip := trace.SquareWave(media.Kbps(5000), media.Kbps(150), 20*time.Second, 10*time.Second)
	return []requestPathRow{
		{
			// Muxed objects through a shared edge: the cache outcome the
			// edge hook records lands before the muxed Request event.
			name: "muxed-fleet-cell",
			want: []timeline.Kind{timeline.Request, timeline.RequestDone, timeline.CacheHit, timeline.CacheMiss},
			fleet: func(t *testing.T) ([]*timeline.Recorder, any) {
				t.Helper()
				res, err := fleet.Run(fleet.Config{
					Content:       requestPathContent(),
					Sessions:      4,
					Mix:           []core.PlayerKind{core.BestPractice, core.MPCJoint},
					Mode:          cdnsim.Muxed,
					CacheBytes:    6 << 20,
					MissPenalty:   40 * time.Millisecond,
					UplinkProfile: trace.Fixed(media.Kbps(4000)),
					ArrivalSpread: 10 * time.Second,
					Seed:          3,
					Transport:     &h2,
					AccessRTT:     20 * time.Millisecond,
					Timeline:      true,
				})
				if err != nil {
					t.Fatal(err)
				}
				return res.Recorders, res.Sessions
			},
		},
		{
			name:    "dashjs-per-type",
			want:    []timeline.Kind{timeline.Request, timeline.RequestDone, timeline.Decision},
			session: &playerSession{kind: core.DashJS, profile: trace.Fig3VaryingAvg600()},
		},
		{
			// Per-type loops through faults, retries and an HTTP/1.1
			// connection per stream.
			name: "dashjs-faults-h1",
			want: []timeline.Kind{timeline.RequestFailed, timeline.Retry},
			session: &playerSession{
				kind:    core.DashJS,
				profile: trace.Fig3VaryingAvg600(),
				rtt:     30 * time.Millisecond,
				cfg: player.Config{
					FaultPlan:  &faults.Plan{Seed: 5, Rate: 0.15},
					Robustness: &pol,
					Transport:  &h1,
				},
			},
		},
		{
			name: "syncwindow-audio-resets",
			want: []timeline.Kind{timeline.AudioReset, timeline.Request, timeline.RequestDone},
			session: &playerSession{kind: core.BestPractice, profile: trace.Fig3VaryingAvg600(), cfg: player.Config{
				SyncWindow:  1,
				AudioResets: []time.Duration{25 * time.Second, 70 * time.Second},
			}},
		},
		{
			name: "dashjs-audio-resets",
			want: []timeline.Kind{timeline.AudioReset, timeline.Request, timeline.RequestDone},
			session: &playerSession{kind: core.DashJS, profile: trace.Fig3VaryingAvg600(), cfg: player.Config{
				AudioResets: []time.Duration{25 * time.Second, 70 * time.Second},
			}},
		},
		{
			name: "muxed-audio-resets",
			want: []timeline.Kind{timeline.AudioReset, timeline.Request, timeline.RequestDone},
			session: &playerSession{kind: core.BestPractice, profile: trace.Fig3VaryingAvg600(), cfg: player.Config{
				Muxed:       true,
				AudioResets: []time.Duration{25 * time.Second, 70 * time.Second},
			}},
		},
		{
			name:    "abandon-dipping",
			want:    []timeline.Kind{timeline.Abandon},
			session: &playerSession{kind: core.BestPracticeAbandon, profile: dip},
		},
		{
			// Faults that persist up to four attempts, plus a blackout long
			// enough to trip the request timeout: strikes blacklist tracks
			// and force failover.
			name: "faults-blacklist-failover",
			want: []timeline.Kind{timeline.FaultInjected, timeline.RequestTimeout, timeline.Blacklist, timeline.Failover, timeline.Retry},
			session: &playerSession{
				kind:    core.BestPractice,
				profile: trace.Fixed(media.Kbps(2500)),
				rtt:     30 * time.Millisecond,
				cfg: player.Config{
					FaultPlan: &faults.Plan{
						Seed: 9, Rate: 0.1, MaxPersistence: 4,
						Blackouts: []faults.Window{{Start: 40 * time.Second, End: 70 * time.Second}},
					},
					Robustness: &pol,
					Transport:  &h2,
				},
			},
		},
		{
			name: "live-syncwindow-resync",
			want: []timeline.Kind{timeline.LiveResync},
			session: &playerSession{kind: core.BestPractice, profile: trace.SquareWave(media.Kbps(3000), media.Kbps(50), 30*time.Second, 20*time.Second), cfg: player.Config{
				SyncWindow: 1,
				Live: &player.LiveConfig{
					LatencyTarget:   3 * time.Second,
					PartTarget:      500 * time.Millisecond,
					EdgeAtJoin:      30 * time.Second,
					ResyncThreshold: 8 * time.Second,
				},
			}},
		},
	}
}

// TestRequestPathGolden pins the request path bit for bit where no other
// golden reaches: muxed objects through the edge hook, per-type loops,
// bounded skew with audio resets, abandonment, and the fault / retry /
// blacklist / failover chain. Each row contributes the sha256 of its
// timeline JSONL export and of the JSON encoding of its session's Result
// or its fleet's session rows, which must match
// testdata/request_path.golden. Regenerate with
// `go test ./internal/player -run TestRequestPathGolden -update` only for
// an intended change of the player's output.
func TestRequestPathGolden(t *testing.T) {
	var got strings.Builder
	for _, row := range requestPathRows() {
		recs, results := row.record(t)
		seen := map[timeline.Kind]bool{}
		events := 0
		for _, rec := range recs {
			for _, ev := range rec.Events() {
				seen[ev.Kind] = true
				events++
			}
		}
		for _, k := range row.want {
			if !seen[k] {
				t.Errorf("%s: recording has no %s event; the row no longer covers its path", row.name, k)
			}
		}
		var jsonl bytes.Buffer
		if err := timeline.WriteJSONL(&jsonl, recs); err != nil {
			t.Fatal(err)
		}
		res, err := json.Marshal(results)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "timeline %s %d %x\n", row.name, events, sha256.Sum256(jsonl.Bytes()))
		fmt.Fprintf(&got, "result %s %x\n", row.name, sha256.Sum256(res))
	}
	path := filepath.Join("testdata", "request_path.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("request path hashes differ from %s:\ngot:\n%swant:\n%s", path, got.String(), want)
	}
}
