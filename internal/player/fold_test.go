package player_test

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"demuxabr/internal/core"
	"demuxabr/internal/experiments"
	"demuxabr/internal/media"
	"demuxabr/internal/player"
	"demuxabr/internal/qoe"
	"demuxabr/internal/stats"
	"demuxabr/internal/timeline"
	"demuxabr/internal/trace"
)

// timelineBufferMetrics is how qoe.Compute and Result.MaxBufferImbalance
// read the buffer metrics off Result.Timeline before the buffer fold,
// kept verbatim as the fold's reference.
func timelineBufferMetrics(res *player.Result) (mean, maxImb time.Duration, health stats.Summary) {
	var imbSum time.Duration
	minBuffers := make([]float64, 0, len(res.Timeline))
	for _, s := range res.Timeline {
		d := s.AudioBuffer - s.VideoBuffer
		if d < 0 {
			d = -d
		}
		imbSum += d
		lo := s.VideoBuffer
		if s.AudioBuffer < lo {
			lo = s.AudioBuffer
		}
		minBuffers = append(minBuffers, lo.Seconds())
	}
	if n := len(res.Timeline); n > 0 {
		mean = imbSum / time.Duration(n)
		health = stats.Summarize(minBuffers)
	}
	for _, s := range res.Timeline {
		d := s.AudioBuffer - s.VideoBuffer
		if d < 0 {
			d = -d
		}
		if d > maxImb {
			maxImb = d
		}
	}
	return mean, maxImb, health
}

// sameSummary compares two summaries bit for bit.
func sameSummary(a, b stats.Summary) bool {
	fa := []float64{a.Min, a.P10, a.Median, a.P90, a.Max, a.Mean}
	fb := []float64{b.Min, b.P10, b.Median, b.P90, b.Max, b.Mean}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	return a.N == b.N
}

// TestBufferFoldMatchesTimeline runs every request-path session, one the
// deadline aborts and one of every player kind three ways: keeping its
// timeline under a recorder, under the recorder alone, and bare, with
// neither.
//   - The kept run's buffer metrics are, bit for bit, what the timeline
//     loop they replaced computes from its samples.
//   - The recorded run keeps no sample, yet scores the same Metrics,
//     records the same events and, timeline aside, encodes the same Result.
//   - The bare run never reads the model's bandwidth estimate, yet scores
//     the same Metrics, downloads the same Chunks, stalls the same Stalls
//     and, timeline aside, encodes the same Result.
func TestBufferFoldMatchesTimeline(t *testing.T) {
	type namedSession struct {
		name string
		p    playerSession
	}
	var sessions []namedSession
	for _, row := range requestPathRows() {
		if row.session != nil {
			sessions = append(sessions, namedSession{row.name, *row.session})
		}
	}
	// The lowest combination needs about 360 Kbps; at 100 Kbps the
	// 120 s asset cannot finish within a 40 s deadline.
	sessions = append(sessions, namedSession{"deadline-abort", playerSession{
		kind: core.BestPractice, profile: trace.Fixed(media.Kbps(100)),
		cfg: player.Config{Deadline: 40 * time.Second},
	}})
	for _, k := range core.PlayerKinds() {
		p := playerSession{kind: k, profile: trace.RandomWalk(5, media.Kbps(400), media.Kbps(2500), 4*time.Second, time.Minute)}
		if slices.Contains(experiments.LiveModels(), k) {
			p.cfg.Live = experiments.LiveConfig()
		}
		sessions = append(sessions, namedSession{"kind-" + string(k), p})
	}

	for _, s := range sessions {
		keptRec, kept, keptM := s.p.play(t, true)
		recordedRec, recorded, recordedM := s.p.play(t, false)
		bare, bareM := s.p.run(t, false, nil)
		if s.name == "deadline-abort" && (!kept.Aborted || !strings.Contains(kept.AbortReason, "deadline")) {
			t.Fatalf("%s: session was not aborted by its deadline (aborted %v: %q)", s.name, kept.Aborted, kept.AbortReason)
		}
		if len(kept.Timeline) == 0 {
			t.Fatalf("%s: kept run logged no sample", s.name)
		}

		mean, maxImb, health := timelineBufferMetrics(kept)
		if keptM.MeanImbalance != mean || keptM.MaxImbalance != maxImb || kept.MaxBufferImbalance() != maxImb {
			t.Errorf("%s: fold imbalance mean %v max %v, timeline mean %v max %v",
				s.name, keptM.MeanImbalance, keptM.MaxImbalance, mean, maxImb)
		}
		if !sameSummary(keptM.BufferHealth, health) {
			t.Errorf("%s: fold buffer health %+v, timeline %+v", s.name, keptM.BufferHealth, health)
		}

		for _, run := range []struct {
			label string
			res   *player.Result
			m     qoe.Metrics
		}{{"recorded", recorded, recordedM}, {"bare", bare, bareM}} {
			if len(run.res.Timeline) != 0 {
				t.Errorf("%s: %s run kept %d samples", s.name, run.label, len(run.res.Timeline))
			}
			if !sameMetrics(keptM, run.m) {
				t.Errorf("%s: %s metrics differ:\nkept %+v\ngot  %+v", s.name, run.label, keptM, run.m)
			}
			if !reflect.DeepEqual(kept.Chunks, run.res.Chunks) || !reflect.DeepEqual(kept.Stalls, run.res.Stalls) {
				t.Errorf("%s: %s run downloads or stalls differently", s.name, run.label)
			}
			if !bytes.Equal(resultJSON(t, kept), resultJSON(t, run.res)) {
				t.Errorf("%s: %s results differ beyond the timeline", s.name, run.label)
			}
		}

		var keptEvents, recordedEvents bytes.Buffer
		if err := timeline.WriteJSONL(&keptEvents, []*timeline.Recorder{keptRec}); err != nil {
			t.Fatal(err)
		}
		if err := timeline.WriteJSONL(&recordedEvents, []*timeline.Recorder{recordedRec}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(keptEvents.Bytes(), recordedEvents.Bytes()) {
			t.Errorf("%s: recorded events differ", s.name)
		}
	}
}

// sameMetrics compares two sessions' metrics, live stats by value.
func sameMetrics(a, b qoe.Metrics) bool {
	if (a.Live == nil) != (b.Live == nil) || a.Live != nil && *a.Live != *b.Live {
		return false
	}
	a.Live, b.Live = nil, nil
	return a == b
}

// resultJSON encodes res without its timeline.
func resultJSON(t *testing.T, res *player.Result) []byte {
	t.Helper()
	r := *res
	r.Timeline = nil
	b, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
