// Package experiments defines one runner per table and figure of the
// paper's evaluation, wiring the full stack end-to-end: content synthesis →
// manifest generation and re-parsing → player model construction from the
// parsed manifest → discrete-event streaming session → QoE metrics.
//
// Every runner is deterministic; the benchmark harness (bench_test.go at
// the repository root) regenerates the paper's rows and series from these.
package experiments

import (
	"fmt"
	"time"

	"demuxabr/internal/core"
	"demuxabr/internal/media"
	"demuxabr/internal/player"
	"demuxabr/internal/qoe"
)

// Outcome is one finished experiment session: the model name, the raw
// result, its QoE metrics and the server-declared combination list. It is
// core.Session, the type every session pipeline run returns.
type Outcome = core.Session

// playToEnd runs one session through core.Play and insists that it
// finished: outside the fault experiments, a session cut short is a broken
// run, not a measurement.
func playToEnd(spec core.Spec) (Outcome, error) {
	s, err := core.Play(spec)
	if err != nil {
		return Outcome{}, fmt.Errorf("experiments: %w", err)
	}
	if !s.Result.Ended {
		return Outcome{}, fmt.Errorf("experiments: %s: session did not finish", s.Model)
	}
	return *s, nil
}

// scoreFinished is playToEnd's tail for the few sessions wired by hand
// because they need player or link features core.Spec does not carry: it
// insists the session finished and scores it against allowed.
func scoreFinished(res *player.Result, model string, c *media.Content, allowed []media.Combo) (Outcome, error) {
	if !res.Ended {
		return Outcome{}, fmt.Errorf("experiments: %s: session did not finish", model)
	}
	return Outcome{
		Model:   model,
		Result:  res,
		Metrics: qoe.Compute(res, c, allowed, qoe.DefaultWeights()),
		Allowed: allowed,
	}, nil
}

// DominantCombo returns the combination selected for the most chunk
// positions.
func DominantCombo(res *player.Result) media.Combo {
	count := map[string]int{}
	rep := map[string]media.Combo{}
	video := map[int]*media.Track{}
	audio := map[int]*media.Track{}
	for _, ch := range res.Chunks {
		if ch.Type == media.Video {
			video[ch.Index] = ch.Track
		} else {
			audio[ch.Index] = ch.Track
		}
	}
	for i, v := range video {
		a := audio[i]
		if a == nil {
			continue
		}
		cb := media.Combo{Video: v, Audio: a}
		count[cb.String()]++
		rep[cb.String()] = cb
	}
	// Ties broken by name so the answer never depends on map iteration
	// order.
	var best media.Combo
	bestN := -1
	bestKey := ""
	for k, n := range count {
		if n > bestN || (n == bestN && k < bestKey) {
			bestN = n
			bestKey = k
			best = rep[k]
		}
	}
	return best
}

// TimelinePoint is one figure sample: time, selected tracks, buffers,
// estimate — the series the paper's plots show.
type TimelinePoint struct {
	At          time.Duration
	Video       string
	Audio       string
	VideoBuffer time.Duration
	AudioBuffer time.Duration
	Estimate    media.Bps
	Stalled     bool
}

// Timeline converts a result's samples into figure points.
func Timeline(res *player.Result) []TimelinePoint {
	out := make([]TimelinePoint, 0, len(res.Timeline))
	for _, s := range res.Timeline {
		p := TimelinePoint{
			At:          s.At,
			VideoBuffer: s.VideoBuffer,
			AudioBuffer: s.AudioBuffer,
			Stalled:     s.Stalled,
		}
		if s.Video != nil {
			p.Video = s.Video.ID
		}
		if s.Audio != nil {
			p.Audio = s.Audio.ID
		}
		if s.EstimateOK {
			p.Estimate = s.Estimate
		}
		out = append(out, p)
	}
	return out
}
