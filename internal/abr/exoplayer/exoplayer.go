// Package exoplayer models ExoPlayer v2.10's audio/video adaptation as
// described in §3.2 of the paper, in both of its protocol-dependent modes:
//
//   - DASH: per-track declared bitrates are available, so the player
//     predetermines a subset of audio/video combinations (the allocation-
//     checkpoint merge reimplemented in PredeterminedCombos) and adapts only
//     within it, using a global bandwidth meter over both streams and a
//     conservative 0.75 bandwidth fraction.
//   - HLS: the top-level master playlist carries only aggregate variant
//     bandwidths, so the player assumes all audio renditions are equal
//     (pinning the first listed one) and overestimates each video track's
//     bitrate as the aggregate bandwidth of the first variant containing it.
package exoplayer

import (
	"math"
	"sort"
	"time"

	"demuxabr/internal/abr"
	"demuxabr/internal/abr/estimator"
	"demuxabr/internal/media"
)

// Defaults mirroring ExoPlayer v2.10.2's AdaptiveTrackSelection.
const (
	// DefaultBandwidthFraction is the fraction of the estimate assumed
	// usable ("conservatively assumes that the actual network bandwidth is
	// 75% of the estimated bandwidth", §3.2).
	DefaultBandwidthFraction = 0.75
	// DefaultInitialEstimate is used before any transfer completes.
	DefaultInitialEstimate = media.Bps(1_000_000)
	// DefaultMinDurationForQualityIncrease: don't switch up with less
	// buffered than this.
	DefaultMinDurationForQualityIncrease = 10 * time.Second
	// DefaultMaxDurationForQualityDecrease: don't switch down with more
	// buffered than this.
	DefaultMaxDurationForQualityDecrease = 25 * time.Second
)

// PredeterminedCombos reimplements ExoPlayer's allocation-checkpoint
// construction: the combinations it will adapt across when a DASH manifest
// leaves the pairing unconstrained.
//
// For each selection (video, audio) with ladder log-bitrates l_1..l_K, the
// switch point of step j is ((l_j+l_{j+1})/2 − l_1)/(l_K − l_1): switch
// points are distributed in a common [0,1] range proportionally to
// log-bitrate position. All selections' switch points are merged in
// increasing order (video first on ties) and tracks step up one at a time,
// so adjacent combinations differ in exactly one component.
//
// This reproduces the paper's three sequences exactly — e.g. for Table 1:
// V1+A1, V2+A1, V2+A2, V3+A2, V4+A2, V4+A3, V5+A3, V6+A3.
func PredeterminedCombos(video, audio media.Ladder) []media.Combo {
	type step struct {
		point float64
		typ   media.Type // which selection steps up
	}
	points := func(l media.Ladder, typ media.Type) []step {
		if len(l) < 2 {
			return nil
		}
		logs := make([]float64, len(l))
		for i, t := range l {
			logs[i] = math.Log(float64(t.DeclaredBitrate))
		}
		span := logs[len(logs)-1] - logs[0]
		out := make([]step, 0, len(l)-1)
		for j := 0; j+1 < len(logs); j++ {
			p := 0.0
			if span > 0 {
				p = ((logs[j]+logs[j+1])/2 - logs[0]) / span
			}
			out = append(out, step{point: p, typ: typ})
		}
		return out
	}
	steps := append(points(video, media.Video), points(audio, media.Audio)...)
	sort.SliceStable(steps, func(i, j int) bool {
		if steps[i].point < steps[j].point {
			return true
		}
		if steps[j].point < steps[i].point {
			return false
		}
		// Ties: video steps first (stable order of the merged lists).
		return steps[i].typ == media.Video && steps[j].typ == media.Audio
	})
	vi, ai := 0, 0
	combos := []media.Combo{{Video: video[0], Audio: audio[0]}}
	for _, st := range steps {
		if st.typ == media.Video {
			vi++
		} else {
			ai++
		}
		combos = append(combos, media.Combo{Video: video[vi], Audio: audio[ai]})
	}
	return combos
}

// hysteresis applies ExoPlayer's buffered-duration switch damping: with
// little buffer, refuse to switch up; with ample buffer, refuse to switch
// down.
type hysteresis struct {
	minForIncrease time.Duration
	maxForDecrease time.Duration
}

func (h hysteresis) apply(currentRate, idealRate media.Bps, buffered time.Duration) bool {
	switch {
	case idealRate > currentRate:
		return buffered >= h.minForIncrease
	case idealRate < currentRate:
		return buffered < h.maxForDecrease
	default:
		return true
	}
}

// meter is the global bandwidth meter every mode embeds: ExoPlayer's
// DefaultBandwidthMeter, an abr.Observer itself, so the models are fed the
// transfer events with no forwarding code of their own.
type meter = estimator.GlobalMeter

// DASH is ExoPlayer's joint adaptation over the predetermined combinations.
type DASH struct {
	// BandwidthFraction, InitialEstimate and the switch-damping thresholds
	// default to ExoPlayer's values; override before first use only.
	BandwidthFraction float64
	InitialEstimate   media.Bps
	Damping           hysteresis

	meter
	combos  []media.Combo
	current media.Combo
}

// NewDASH builds the model for the given ladders, predetermining the
// combination subset exactly as ExoPlayer does.
func NewDASH(video, audio media.Ladder) *DASH {
	return &DASH{
		BandwidthFraction: DefaultBandwidthFraction,
		InitialEstimate:   DefaultInitialEstimate,
		Damping: hysteresis{
			minForIncrease: DefaultMinDurationForQualityIncrease,
			maxForDecrease: DefaultMaxDurationForQualityDecrease,
		},
		meter:  estimator.NewGlobalMeter(),
		combos: PredeterminedCombos(video, audio),
	}
}

// Name implements abr.Algorithm.
func (d *DASH) Name() string { return "exoplayer-dash" }

// Combos exposes the predetermined combinations (for tests and reports).
func (d *DASH) Combos() []media.Combo { return d.combos }

// BandwidthEstimate implements abr.BandwidthReporter.
func (d *DASH) BandwidthEstimate() (media.Bps, bool) {
	if est, ok := d.meter.Estimate(); ok {
		return est, true
	}
	return d.InitialEstimate, true
}

// SelectCombo implements abr.JointAlgorithm: highest predetermined
// combination whose declared bitrate fits within BandwidthFraction of the
// estimate, damped by the buffered duration.
func (d *DASH) SelectCombo(st abr.State) media.Combo {
	est, _ := d.BandwidthEstimate()
	budget := media.Bps(float64(est) * d.BandwidthFraction)
	ideal := abr.HighestAtMost(d.combos, budget, media.Combo.DeclaredBitrate)
	if d.current.Video == nil {
		d.current = ideal
		return d.current
	}
	if d.Damping.apply(d.current.DeclaredBitrate(), ideal.DeclaredBitrate(), st.MinBuffer()) {
		d.current = ideal
	}
	return d.current
}

// HLS is ExoPlayer's degraded behaviour when only a top-level HLS master
// playlist is available: fixed audio (first listed rendition) and video
// adaptation against overestimated per-video bitrates.
type HLS struct {
	// Same tunables as DASH.
	BandwidthFraction float64
	InitialEstimate   media.Bps
	Damping           hysteresis

	meter
	videos       media.Ladder
	videoBitrate map[string]media.Bps // video ID -> overestimated bitrate
	fixedAudio   *media.Track
	current      *media.Track
}

// NewHLS builds the model from the master playlist's variant list (in
// manifest order) and rendition list (in manifest order).
//
// ExoPlayer cannot see per-track bitrates in the top-level playlist, so:
// the first listed audio rendition is used for the whole session, and each
// video track's bitrate is taken as the aggregate BANDWIDTH of the first
// variant that contains it.
func NewHLS(variants []media.Combo, audioOrder []*media.Track) *HLS {
	h := &HLS{
		BandwidthFraction: DefaultBandwidthFraction,
		InitialEstimate:   DefaultInitialEstimate,
		Damping: hysteresis{
			minForIncrease: DefaultMinDurationForQualityIncrease,
			maxForDecrease: DefaultMaxDurationForQualityDecrease,
		},
		meter:        estimator.NewGlobalMeter(),
		videoBitrate: make(map[string]media.Bps),
	}
	if len(audioOrder) > 0 {
		h.fixedAudio = audioOrder[0]
	}
	seen := map[string]bool{}
	for _, v := range variants {
		if !seen[v.Video.ID] {
			seen[v.Video.ID] = true
			h.videos = append(h.videos, v.Video)
			// Aggregate peak bandwidth of the first variant containing the
			// video track: the overestimation of §3.2.
			h.videoBitrate[v.Video.ID] = v.PeakBitrate()
		}
		if h.fixedAudio == nil {
			h.fixedAudio = v.Audio
		}
	}
	sort.SliceStable(h.videos, func(i, j int) bool {
		return h.videoBitrate[h.videos[i].ID] < h.videoBitrate[h.videos[j].ID]
	})
	return h
}

// Name implements abr.Algorithm.
func (h *HLS) Name() string { return "exoplayer-hls" }

// FixedAudio exposes the pinned audio rendition.
func (h *HLS) FixedAudio() *media.Track { return h.fixedAudio }

// AssumedVideoBitrate exposes the overestimated bitrate used for a video
// track (for tests and reports).
func (h *HLS) AssumedVideoBitrate(id string) media.Bps { return h.videoBitrate[id] }

// BandwidthEstimate implements abr.BandwidthReporter.
func (h *HLS) BandwidthEstimate() (media.Bps, bool) {
	if est, ok := h.meter.Estimate(); ok {
		return est, true
	}
	return h.InitialEstimate, true
}

// SelectCombo implements abr.JointAlgorithm. Only the video track adapts;
// the audio rendition never changes regardless of bandwidth — and the
// resulting pair may not be a variant the manifest lists.
func (h *HLS) SelectCombo(st abr.State) media.Combo {
	est, _ := h.BandwidthEstimate()
	budget := media.Bps(float64(est) * h.BandwidthFraction)
	ideal := h.videos[0]
	for _, v := range h.videos {
		if h.videoBitrate[v.ID] <= budget {
			ideal = v
		}
	}
	if h.current == nil {
		h.current = ideal
	} else if h.Damping.apply(h.videoBitrate[h.current.ID], h.videoBitrate[ideal.ID], st.MinBuffer()) {
		h.current = ideal
	}
	return media.Combo{Video: h.current, Audio: h.fixedAudio}
}
