package player

import (
	"fmt"
	"math"
	"time"

	"demuxabr/internal/media"
	"demuxabr/internal/netsim"
	"demuxabr/internal/timeline"
)

// Live mode: the content plays the role of a live stream whose edge
// advances in real (engine) time. Three mechanisms distinguish it from
// VOD, all guarded on Session.live so VOD sessions execute the exact
// pre-live code paths:
//
//   - availability gating: chunk i cannot be requested before the encoder
//     has produced it. With CMAF parts (LiveConfig.PartTarget > 0) the
//     fetch may start once the first part exists — the LL-HLS blocking
//     part request / LL-DASH availabilityTimeOffset model — otherwise it
//     waits for the whole segment;
//   - a latency-target controller: playback rate nudges up/down (dash.js
//     catch-up mechanism) to hold live-edge latency at the target, and a
//     latency overrun beyond the resync threshold jumps the playhead
//     forward to re-acquire the edge, discarding the backlog;
//   - join-at-edge: the session starts LatencyTarget behind the current
//     edge instead of at position zero.

// LiveConfig parameterizes a latency-target live session. The zero value
// of every field selects a documented default, so &LiveConfig{} is a
// valid "live with defaults" switch.
type LiveConfig struct {
	// LatencyTarget is the live-edge latency the controller holds.
	// Default 3 s (the dash.js low-latency default neighbourhood).
	LatencyTarget time.Duration
	// PartTarget is the CMAF partial-segment duration the origin
	// publishes while a segment is still encoding: a chunk becomes
	// fetchable PartTarget after its encode starts instead of at its end.
	// 0 disables parts (whole-segment availability).
	PartTarget time.Duration
	// EdgeAtJoin is how much stream history exists when the session
	// starts; the session joins LatencyTarget behind that edge. Clamped
	// to the content duration. Default 60 s.
	EdgeAtJoin time.Duration
	// ResyncThreshold is the latency beyond which the player stops
	// trickling and jumps forward to LatencyTarget behind the edge.
	// Default 4x LatencyTarget.
	ResyncThreshold time.Duration
}

// The catch-up controller samples latency every liveSampleInterval and
// sets the playback rate to 1 + liveRateGain per second of latency error,
// clamped to [liveMinRate, liveMaxRate] (the conservative dash.js-style
// envelope).
const (
	liveSampleInterval = 500 * time.Millisecond
	liveRateGain       = 0.05
	liveMinRate        = 0.92
	liveMaxRate        = 1.08
)

// withDefaults returns the config with zero fields resolved.
func (lc LiveConfig) withDefaults() LiveConfig {
	if lc.LatencyTarget == 0 {
		lc.LatencyTarget = 3 * time.Second
	}
	if lc.EdgeAtJoin == 0 {
		lc.EdgeAtJoin = 60 * time.Second
	}
	if lc.ResyncThreshold == 0 {
		lc.ResyncThreshold = 4 * lc.LatencyTarget
	}
	return lc
}

// LiveStats is the latency/rate accounting of one live session, attached
// to Result.Live (nil for VOD sessions, keeping VOD reports byte-
// identical to pre-live output).
type LiveStats struct {
	// LatencyTarget echoes the configured target.
	LatencyTarget time.Duration `json:"latency_target"`
	// JoinLatency is the live-edge latency at join (target, unless the
	// stream was younger than the target).
	JoinLatency time.Duration `json:"join_latency"`
	// MeanLatency and MaxLatency summarize the periodic latency samples.
	MeanLatency time.Duration `json:"mean_latency"`
	// MaxLatency is documented with MeanLatency.
	MaxLatency time.Duration `json:"max_latency"`
	// FinalLatency is the last latency sampled while the stream was still
	// live (before the edge hit the end of the content) — the drift a
	// viewer would observe in steady state.
	FinalLatency time.Duration `json:"final_latency"`
	// Samples counts latency samples.
	Samples int `json:"samples"`
	// RateChanges counts catch-up controller rate adjustments.
	RateChanges int `json:"rate_changes"`
	// Resyncs counts live-edge resync jumps.
	Resyncs int `json:"resyncs"`
	// SkippedTime is the media time discarded by resync jumps.
	SkippedTime time.Duration `json:"skipped_time"`
	// CatchupTime and SlowdownTime are the played wall time spent above
	// and below 1.0x, sampled at the controller cadence.
	CatchupTime time.Duration `json:"catchup_time"`
	// SlowdownTime is documented with CatchupTime.
	SlowdownTime time.Duration `json:"slowdown_time"`
	// MeanRate is the time-weighted mean playback rate while playing.
	MeanRate float64 `json:"mean_rate"`
}

// liveState is the per-session live controller state.
type liveState struct {
	cfg LiveConfig
	// edge0 is the stream history at session start (engine-time anchored:
	// the edge at absolute time now is edge0 + rel(now), capped at the
	// content duration).
	edge0 time.Duration
	// rate is the current playback rate in centirate units (100 = 1.0x).
	// The controller quantizes to 0.01x steps anyway; integer storage makes
	// change detection exact.
	rate int
	// wakeAt deduplicates scheduled availability wake-ups per fetch loop,
	// indexed by media.Type (the paired loop uses the video entry).
	wakeAt [2]time.Duration
	// lastTickAt is the previous controller tick (absolute engine time),
	// for time-weighted rate accounting.
	lastTickAt time.Duration
	// latencySum accumulates sampled latency for the mean.
	latencySum time.Duration
	// rateSeconds and playSeconds accumulate rate*dt and dt while playing.
	rateSeconds float64
	playSeconds float64
	// tick is the controller tick, Session.onLiveTick bound once per
	// Session object, and lane the engine's lane for its cadence.
	tick func()
	lane *netsim.Lane

	stats LiveStats
}

// rateF is the playback rate as a float multiplier.
func (ls *liveState) rateF() float64 { return float64(ls.rate) / 100 }

// initLive installs live mode, whose configuration setDefaults has
// checked; called from start after the chunk table is built and before
// the fetch loops are scheduled.
func (s *Session) initLive() {
	cfg := s.cfg.Live.withDefaults()
	ls := &s.spare.live
	*ls = liveState{cfg: cfg, rate: 100, tick: ls.tick}
	ls.edge0 = cfg.EdgeAtJoin
	if ls.edge0 > s.cfg.Content.Duration {
		ls.edge0 = s.cfg.Content.Duration
	}
	// Join LatencyTarget behind the edge, snapped down to a video chunk
	// boundary (a client can only start on a segment or part boundary; we
	// model segment joins, and the video keyframe boundary governs where
	// playback can begin). Audio joins at its own chunk covering that
	// position — on shaped content with misaligned timelines that chunk may
	// start earlier, so the join refetches a little already-past audio,
	// exactly as a real player must.
	joinPos := ls.edge0 - cfg.LatencyTarget
	if joinPos < 0 {
		joinPos = 0
	}
	joinIdx := s.cfg.Content.ChunkIndexAt(media.Video, joinPos)
	joinPos = s.cfg.Content.ChunkTimeline(media.Video)[joinIdx]
	s.playPos = joinPos
	s.next[media.Video] = joinIdx
	s.next[media.Audio] = s.cfg.Content.ChunkIndexAt(media.Audio, joinPos)
	s.frontier[media.Video], s.frontier[media.Audio] = joinPos, joinPos
	ls.stats.LatencyTarget = cfg.LatencyTarget
	ls.stats.JoinLatency = ls.edge0 - joinPos
	ls.lastTickAt = s.eng.Now()
	if ls.tick == nil {
		ls.tick = s.onLiveTick
	}
	ls.lane = s.eng.Lane(liveSampleInterval)
	s.live = ls
	s.scheduleLiveTick()
}

// liveEdgeAt returns the stream edge (media time produced so far) at
// absolute engine time now.
func (s *Session) liveEdgeAt(now time.Duration) time.Duration {
	edge := s.live.edge0 + s.rel(now)
	if edge > s.cfg.Content.Duration {
		edge = s.cfg.Content.Duration
	}
	return edge
}

// liveLatency is the live-edge latency: how far the playhead trails the
// edge.
func (s *Session) liveLatency(now time.Duration) time.Duration {
	lat := s.liveEdgeAt(now) - s.playPosAt(now)
	if lat < 0 {
		lat = 0
	}
	return lat
}

// chunkAvailableAt returns the absolute engine time chunk idx of t's
// timeline becomes requestable. Without parts that is its encode-completion
// instant; with CMAF parts it is the instant the first part exists —
// PartTarget after the chunk's encode starts, never before the chunk's own
// encode completes for chunks shorter than a part. Deriving the offset from
// each chunk's actual edges (rather than a single nominal-ChunkDuration
// offset) is what keeps availability correct on variable-duration
// timelines. Chunks behind the join edge are available immediately.
func (s *Session) chunkAvailableAt(t media.Type, idx int) time.Duration {
	starts := s.cfg.Content.ChunkTimeline(t)
	avail := starts[idx+1]
	if pt := s.live.cfg.PartTarget; pt > 0 {
		if first := starts[idx] + pt; first < avail {
			avail = first
		}
	}
	at := s.t0 + avail - s.live.edge0
	if at < s.t0 {
		return s.t0
	}
	return at
}

// liveWakeAt schedules stream t's fetch-loop wake at the availability
// instant, deduplicating repeated requests for the same instant (every
// buffer or completion event re-enters the fetch loop while it is
// availability-blocked).
func (s *Session) liveWakeAt(t media.Type, at time.Duration) {
	if s.live.wakeAt[t] == at {
		return
	}
	s.live.wakeAt[t] = at
	s.eng.Schedule(at, s.loop(t))
}

// scheduleLiveTick arms the latency-target controller's next tick.
func (s *Session) scheduleLiveTick() { s.live.lane.Add(s.live.tick) }

// onLiveTick runs the controller at its cadence; bound once as
// liveState.tick so the re-arm allocates no closure.
func (s *Session) onLiveTick() {
	if s.ended {
		return
	}
	s.liveTick()
	if !s.ended {
		s.scheduleLiveTick()
	}
}

// liveTick samples latency, accounts rate time, and runs the catch-up
// controller: proportional rate adaptation inside the resync threshold, a
// forward jump beyond it.
func (s *Session) liveTick() {
	ls := s.live
	now := s.eng.Now()
	lat := s.liveLatency(now)
	ls.stats.Samples++
	ls.latencySum += lat
	if lat > ls.stats.MaxLatency {
		ls.stats.MaxLatency = lat
	}
	if s.liveEdgeAt(now) < s.cfg.Content.Duration {
		ls.stats.FinalLatency = lat
	}
	dt := now - ls.lastTickAt
	ls.lastTickAt = now
	if s.playing {
		ls.rateSeconds += ls.rateF() * dt.Seconds()
		ls.playSeconds += dt.Seconds()
		if ls.rate > 100 {
			ls.stats.CatchupTime += dt
		} else if ls.rate < 100 {
			ls.stats.SlowdownTime += dt
		}
	}
	if s.rec.Enabled() {
		s.rec.Emit(timeline.Event{
			At: now, Dur: lat, Kind: timeline.LatencySample, Index: -1,
			Rate:     ls.rateF(),
			VideoBuf: s.bufferOf(media.Video, now),
			AudioBuf: s.bufferOf(media.Audio, now),
		})
	}
	if !s.started {
		return
	}
	if lat >= ls.cfg.ResyncThreshold {
		s.liveResync(now)
		return
	}
	if !s.playing {
		return
	}
	err := (lat - ls.cfg.LatencyTarget).Seconds()
	r := 1 + liveRateGain*err
	if r < liveMinRate {
		r = liveMinRate
	}
	if r > liveMaxRate {
		r = liveMaxRate
	}
	// Quantize to centirate steps so the controller settles instead of
	// chattering on nanosecond latency noise.
	rc := int(math.Round(r * 100))
	if rc != ls.rate {
		s.setLiveRate(now, rc)
	}
}

// setLiveRate switches the playback clock to a new centirate: elapsed time
// is folded in at the old rate first, then the underrun alarm is re-derived.
func (s *Session) setLiveRate(now time.Duration, rc int) {
	s.syncPlay(now)
	prev := s.live.rateF()
	s.live.rate = rc
	s.live.stats.RateChanges++
	if s.rec.Enabled() {
		s.rec.Emit(timeline.Event{
			At: now, Kind: timeline.RateChange, Index: -1,
			Rate: s.live.rateF(), Detail: fmt.Sprintf("%.2fx", prev),
		})
	}
	s.rescheduleUnderrun()
}

// liveResync jumps the playhead forward to LatencyTarget behind the edge,
// discarding the backlog — the overrun recovery every live player ships
// (dash.js liveCatchup seek, hls.js liveSyncPosition jump). Download
// state behind the jump target is cancelled and refetched from the
// target chunk; downloads already at or past it survive.
func (s *Session) liveResync(now time.Duration) {
	ls := s.live
	s.syncPlay(now)
	edge := s.liveEdgeAt(now)
	target := edge - ls.cfg.LatencyTarget
	if target < 0 {
		target = 0
	}
	// The jump lands on a video chunk boundary; each type resolves its own
	// refetch index on its own timeline (misaligned audio rejoins at the
	// chunk covering the target position).
	idx := s.cfg.Content.ChunkIndexAt(media.Video, target)
	targetPos := s.cfg.Content.ChunkTimeline(media.Video)[idx]
	if targetPos <= s.playPos {
		return
	}
	skipped := targetPos - s.playPos

	discard := func(t media.Type, tIdx int) {
		if s.next[t] >= tIdx {
			// Downloads already reached the jump target; the frontier is at
			// or past it and survives.
			return
		}
		// Its pending retry/timeout timers refer to backlog chunks.
		s.cancelStream(t)
		s.next[t] = tIdx
		s.frontier[t] = targetPos
	}
	discard(media.Video, idx)
	discard(media.Audio, s.cfg.Content.ChunkIndexAt(media.Audio, targetPos))
	if s.paired {
		s.jointPending = 0
	}
	for k := range s.comboFor {
		if k < idx {
			delete(s.comboFor, k)
		}
	}
	s.playPos = targetPos
	ls.stats.Resyncs++
	ls.stats.SkippedTime += skipped
	if s.rec.Enabled() {
		s.rec.Emit(timeline.Event{
			At: now, Dur: skipped, Kind: timeline.LiveResync, Index: idx,
			Rate: ls.rateF(),
		})
	}
	// Catch-up is done: settle the clock back to 1.0x at the new position.
	if ls.rate != 100 {
		s.setLiveRate(now, 100)
	}
	// The jump usually lands past the frontier: playback stalls until the
	// target chunk arrives, through the normal stall/resume machinery.
	if s.playing && s.minFrontier() <= s.playPos {
		s.playing = false
		s.stallAt = now
		s.rec.Emit(timeline.Event{
			At: now, Kind: timeline.StallStart, Index: -1,
			VideoBuf: s.bufferOf(media.Video, now),
			AudioBuf: s.bufferOf(media.Audio, now),
		})
	}
	s.rescheduleUnderrun()
	if s.paired {
		s.fetchJoint()
		return
	}
	s.fetchStream(media.Video)
	s.fetchStream(media.Audio)
}

// collectLive folds the controller's accounting into the result; nil for
// VOD sessions.
func (s *Session) collectLive() {
	ls := s.live
	if ls == nil {
		return
	}
	st := &ls.stats
	if st.Samples > 0 {
		st.MeanLatency = ls.latencySum / time.Duration(st.Samples)
	}
	if ls.playSeconds > 0 {
		st.MeanRate = ls.rateSeconds / ls.playSeconds
	} else {
		st.MeanRate = 1
	}
	s.res.Live = st
}
