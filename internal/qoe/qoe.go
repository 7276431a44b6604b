// Package qoe computes quality-of-experience metrics from a streaming
// session result: the quantities the paper reports (rebuffering time, stall
// counts, selected-track quality, buffer imbalance, selection churn,
// off-manifest selections) and a composite score in the style of Yin et
// al. [25] extended with an audio term.
package qoe

import (
	"math"
	"slices"
	"time"

	"demuxabr/internal/media"
	"demuxabr/internal/player"
	"demuxabr/internal/stats"
)

// Weights parameterizes the composite score.
type Weights struct {
	// AudioWeight scales audio quality relative to video quality.
	AudioWeight float64
	// SwitchPenalty is charged per unit of quality changed across
	// consecutive chunks (both types).
	SwitchPenalty float64
	// RebufferPenalty is charged per second of rebuffering.
	RebufferPenalty float64
	// StartupPenalty is charged per second of startup delay.
	StartupPenalty float64
}

// DefaultWeights follows the common control-theoretic QoE instantiation:
// full audio weight, unit switch penalty, a heavy rebuffer penalty and a
// light startup penalty.
func DefaultWeights() Weights {
	return Weights{AudioWeight: 1, SwitchPenalty: 1, RebufferPenalty: 4.3, StartupPenalty: 1}
}

// Metrics summarizes one session.
type Metrics struct {
	// AvgVideoBitrate / AvgAudioBitrate are duration-weighted averages of
	// the selected tracks' average bitrates.
	AvgVideoBitrate media.Bps
	AvgAudioBitrate media.Bps
	// AvgVideoQuality / AvgAudioQuality are duration-weighted mean ladder
	// utilities (log bitrate relative to the lowest rung; 0 = lowest).
	AvgVideoQuality float64
	AvgAudioQuality float64
	// VideoSwitches / AudioSwitches count track changes between consecutive
	// chunk positions.
	VideoSwitches int
	AudioSwitches int
	// DistinctCombos counts the distinct audio/video pairings used.
	DistinctCombos int
	// OffManifest counts chunk positions whose pairing is outside the
	// allowed list (zero when no list is supplied).
	OffManifest int
	// StallCount / RebufferTime / RebufferRatio describe stalls after
	// startup. RebufferRatio is rebuffer time over (content + rebuffer).
	StallCount    int
	RebufferTime  time.Duration
	RebufferRatio float64
	// StartupDelay is the time to first frame.
	StartupDelay time.Duration
	// MaxImbalance / MeanImbalance summarize |audio − video| buffer skew.
	MaxImbalance  time.Duration
	MeanImbalance time.Duration
	// BufferHealth summarizes the min(audio, video) buffer level in
	// seconds across the timeline — low percentiles close to zero mean the
	// session lived near the stall boundary.
	BufferHealth stats.Summary
	// Score is the composite QoE (higher is better).
	Score float64
	// Live is the session's latency-target accounting (player.Result.Live);
	// nil for VOD (the live-off equivalence contract).
	Live *player.LiveStats
}

// utility returns the log-relative quality of a track within its ladder.
func utility(l media.Ladder, t *media.Track) float64 {
	return math.Log(float64(t.AvgBitrate) / float64(l[0].AvgBitrate))
}

// Compute derives metrics for a finished session. allowed may be nil when
// no server-side combination list applies.
func Compute(res *player.Result, content *media.Content, allowed []media.Combo, w Weights) Metrics {
	var sc Scratch
	return sc.Compute(res, content, allowed, w)
}

// Scratch is working storage that Compute reuses from one call to the
// next: a caller computing many sessions' metrics in turn, as a fleet
// shard does, keeps one and builds each session's per-index selection
// table in the last one's array. The zero Scratch is ready to use.
type Scratch struct {
	sel []*media.Track
}

// Compute is the package-level Compute, building its table in sc.
func (sc *Scratch) Compute(res *player.Result, content *media.Content, allowed []media.Combo, w Weights) Metrics {
	var m Metrics
	// Each type's average weights by that type's own chunk durations:
	// passing the video timeline's durations for audio would mis-weight
	// every chunk on shaped content (and over-count on misaligned counts).
	m.AvgVideoBitrate = res.AvgSelectedBitrate(media.Video, func(i int) time.Duration {
		return content.ChunkDurationOf(media.Video, i)
	})
	m.AvgAudioBitrate = res.AvgSelectedBitrate(media.Audio, func(i int) time.Duration {
		return content.ChunkDurationOf(media.Audio, i)
	})
	m.VideoSwitches = res.Switches(media.Video)
	m.AudioSwitches = res.Switches(media.Audio)
	var sel [2][]*media.Track
	sel, sc.sel = res.ByIndexIn(sc.sel)
	var combos [16]media.Combo
	m.DistinctCombos = len(player.AppendCombos(combos[:0], sel))
	m.StallCount = len(res.Stalls)
	m.RebufferTime = res.RebufferTime()
	if total := content.Duration + m.RebufferTime; total > 0 {
		m.RebufferRatio = m.RebufferTime.Seconds() / total.Seconds()
	}
	m.StartupDelay = res.StartupDelay
	m.MaxImbalance = res.MaxBufferImbalance()
	m.MeanImbalance = res.MeanBufferImbalance()
	m.BufferHealth = res.BufferHealth()
	m.Live = res.Live

	// Duration-weighted utilities and switch magnitudes. The aligned branch
	// is the pre-shaping computation, kept verbatim so uniform (and
	// aligned-shaped) content produces bit-identical metrics; misaligned
	// per-type timelines take the typed branch below, where each type is
	// weighted by its own chunk durations and pairing goes through time
	// overlap instead of a shared index.
	var seconds, switchMag float64
	if content.Aligned() {
		var vQual, aQual float64
		// Each paired index's utilities are computed once and carried to
		// the next paired index for its switch term.
		var prevUV, prevUA float64
		paired := false
		for i := range min(len(sel[media.Video]), len(sel[media.Audio])) {
			v, a := sel[media.Video][i], sel[media.Audio][i]
			if v == nil || a == nil {
				continue
			}
			d := content.ChunkDurationAt(i).Seconds()
			uv, ua := utility(content.VideoTracks, v), utility(content.AudioTracks, a)
			vQual += uv * d
			aQual += ua * d
			seconds += d
			if paired {
				switchMag += math.Abs(uv - prevUV)
				switchMag += math.Abs(ua - prevUA)
			}
			prevUV, prevUA, paired = uv, ua, true
			if len(allowed) > 0 && !comboAllowed(allowed, v, a) {
				m.OffManifest++
			}
		}
		if seconds > 0 {
			m.AvgVideoQuality = vQual / seconds
			m.AvgAudioQuality = aQual / seconds
		}
	} else {
		for _, t := range []media.Type{media.Video, media.Audio} {
			ladder := content.VideoTracks
			if t == media.Audio {
				ladder = content.AudioTracks
			}
			var qual, secs, prevU float64
			seen := false
			for i, tr := range sel[t] {
				if tr == nil {
					continue
				}
				d := content.ChunkDurationOf(t, i).Seconds()
				u := utility(ladder, tr)
				qual += u * d
				secs += d
				if seen {
					switchMag += math.Abs(u - prevU)
				}
				prevU, seen = u, true
			}
			if secs > 0 {
				if t == media.Video {
					m.AvgVideoQuality = qual / secs
					// The video timeline drives the playback clock; its
					// covered seconds normalize the composite score.
					seconds = secs
				} else {
					m.AvgAudioQuality = qual / secs
				}
			}
		}
		// Off-manifest pairings: the audio actually playing during a video
		// chunk is the one covering its midpoint. An aborted session may
		// not have downloaded that audio index at all.
		if len(allowed) > 0 {
			for i, v := range sel[media.Video] {
				if v == nil {
					continue
				}
				mid := content.ChunkStartOf(media.Video, i) + content.ChunkDurationOf(media.Video, i)/2
				j := content.ChunkIndexAt(media.Audio, mid)
				if j < len(sel[media.Audio]) && sel[media.Audio][j] != nil && !comboAllowed(allowed, v, sel[media.Audio][j]) {
					m.OffManifest++
				}
			}
		}
	}

	m.Score = m.AvgVideoQuality + w.AudioWeight*m.AvgAudioQuality -
		w.SwitchPenalty*switchMag/math.Max(seconds/60, 1) - // switch churn per minute
		w.RebufferPenalty*m.RebufferTime.Seconds()/math.Max(seconds, 1)*60 - // rebuffer per minute
		w.StartupPenalty*m.StartupDelay.Seconds()/math.Max(seconds, 1)*60
	return m
}

func comboAllowed(allowed []media.Combo, v, a *media.Track) bool {
	return slices.ContainsFunc(allowed, media.Combo{Video: v, Audio: a}.SameTracks)
}
