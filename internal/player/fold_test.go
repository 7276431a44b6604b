package player_test

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"demuxabr/internal/core"
	"demuxabr/internal/media"
	"demuxabr/internal/player"
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

// TestBufferFoldMatchesTimeline runs every request-path session, and one
// the deadline aborts, twice: keeping its timeline and with
// Config.DropTimeline.
//   - The kept run's buffer metrics are, bit for bit, what the timeline
//     loop they replaced computes from its samples.
//   - The dropped run keeps no sample, yet scores the same Metrics, records
//     the same events and, timeline aside, encodes the same Result.
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

	for _, s := range sessions {
		keptRec, kept, keptM := s.p.play(t, false)
		droppedRec, dropped, droppedM := s.p.play(t, true)
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

		if len(dropped.Timeline) != 0 {
			t.Errorf("%s: dropped run kept %d samples", s.name, len(dropped.Timeline))
		}
		if (keptM.Live == nil) != (droppedM.Live == nil) || keptM.Live != nil && *keptM.Live != *droppedM.Live {
			t.Errorf("%s: live stats differ: %+v vs %+v", s.name, keptM.Live, droppedM.Live)
		}
		keptM.Live, droppedM.Live = nil, nil
		if keptM != droppedM {
			t.Errorf("%s: metrics differ:\nkept    %+v\ndropped %+v", s.name, keptM, droppedM)
		}

		var keptEvents, droppedEvents bytes.Buffer
		if err := timeline.WriteJSONL(&keptEvents, []*timeline.Recorder{keptRec}); err != nil {
			t.Fatal(err)
		}
		if err := timeline.WriteJSONL(&droppedEvents, []*timeline.Recorder{droppedRec}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(keptEvents.Bytes(), droppedEvents.Bytes()) {
			t.Errorf("%s: recorded events differ", s.name)
		}
		dropped.Timeline = kept.Timeline
		keptJSON, err := json.Marshal(kept)
		if err != nil {
			t.Fatal(err)
		}
		droppedJSON, err := json.Marshal(dropped)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(keptJSON, droppedJSON) {
			t.Errorf("%s: results differ beyond the timeline", s.name)
		}
	}
}
