package player

import (
	"slices"
	"time"

	"demuxabr/internal/faults"
	"demuxabr/internal/media"
	"demuxabr/internal/netsim"
	"demuxabr/internal/stats"
)

// Sample is one row of the session timeline, logged every 500 ms — the
// raw material of the paper's figures (track selections, buffer levels and
// bandwidth estimates over time).
type Sample struct {
	At          time.Duration
	PlayPos     time.Duration
	VideoBuffer time.Duration
	AudioBuffer time.Duration
	// Video and Audio are the most recently selected tracks (nil before the
	// first decision).
	Video *media.Track
	Audio *media.Track
	// Estimate is the algorithm's bandwidth estimate at the sample, if the
	// algorithm exposes one.
	Estimate   media.Bps
	EstimateOK bool
	// Stalled is true while playback is rebuffering (after startup).
	Stalled bool
}

// Stall is one rebuffering event.
type Stall struct {
	Start time.Duration
	End   time.Duration
}

// Duration returns the stall length.
func (s Stall) Duration() time.Duration { return s.End - s.Start }

// ChunkDecision records one downloaded chunk and the track chosen for it.
type ChunkDecision struct {
	// Index is the chunk position.
	Index int
	// Type is the media type of this download.
	Type media.Type
	// Track is the selected track.
	Track *media.Track
	// DecidedAt is when the download was issued; CompletedAt when it
	// finished.
	DecidedAt   time.Duration
	CompletedAt time.Duration
	// Bytes is the chunk size.
	Bytes int64
}

// Abandonment records one cancelled-and-replaced chunk download (an
// abandonment-capable model decided the in-flight track was too expensive).
type Abandonment struct {
	Index int
	Type  media.Type
	From  *media.Track
	To    *media.Track
	At    time.Duration
}

// AudioReset records a mid-session audio stream reset (language switch):
// how much already-downloaded content was thrown away to honor it.
type AudioReset struct {
	// At is when the reset fired.
	At time.Duration
	// RefetchFrom is the first chunk index refetched.
	RefetchFrom int
	// DiscardedBytes counts downloaded bytes thrown away (both streams in
	// muxed mode, audio only in demuxed mode).
	DiscardedBytes int64
	// DiscardedSeconds counts the buffered content duration thrown away.
	DiscardedSeconds time.Duration
}

// FaultEvent records one download failure: injected by the fault plan, or
// detected by the robustness policy's request timeout.
type FaultEvent struct {
	// Index is the chunk position; Type and Track identify the download.
	Index int
	Type  media.Type
	Track *media.Track
	// Kind is the failure mode.
	Kind faults.Kind
	// Attempt is which try failed (0 = the first request).
	Attempt int
	// At is when the failure was detected.
	At time.Duration
	// WastedBytes is how much of the body arrived before the failure —
	// downloaded, paid for, and thrown away.
	WastedBytes int64
}

// Failover records the robustness policy substituting a failing track.
type Failover struct {
	Index int
	Type  media.Type
	From  *media.Track
	To    *media.Track
	At    time.Duration
}

// Result is the complete outcome of a streaming session.
type Result struct {
	// ModelName identifies the algorithm that ran.
	ModelName string
	// ContentDuration is the length of the asset.
	ContentDuration time.Duration
	// StartupDelay is the time from session start to first frame.
	StartupDelay time.Duration
	// Ended reports whether playback reached the end of the content.
	Ended bool
	// EndedAt is the virtual time playback finished.
	EndedAt time.Duration
	// Stalls lists every rebuffering event.
	Stalls []Stall
	// Timeline holds periodic samples, only when Config.KeepTimeline is
	// set; it is empty otherwise. The buffer metrics (MaxBufferImbalance,
	// MeanBufferImbalance, BufferHealth) do not read it: they fold each
	// sample as it is logged.
	Timeline []Sample
	// Chunks holds one entry per downloaded chunk per type, in completion
	// order.
	Chunks []ChunkDecision
	// Abandonments lists cancelled-and-replaced downloads, in order.
	Abandonments []Abandonment
	// AudioResets lists mid-session audio resets (language switches).
	AudioResets []AudioReset
	// Faults lists every download failure, in detection order.
	Faults []FaultEvent
	// Failovers lists robustness-policy track substitutions, in order.
	Failovers []Failover
	// Retries counts re-issued downloads (same track or failover).
	Retries int
	// Transport summarizes connection-level accounting when the session
	// ran with a transport configured and the transport charged anything
	// observable; nil otherwise (including for inert, zero-cost
	// transports — the transport-off equivalence contract).
	Transport *TransportStats
	// Live summarizes the latency-target controller's accounting when the
	// session ran in live mode; nil for VOD sessions (the live-off
	// equivalence contract: VOD results carry no live fields at all).
	Live *LiveStats
	// Aborted reports that the session was cut short: a failure with no
	// retry policy, or the Deadline. AbortReason says why.
	Aborted     bool
	AbortReason string

	// buffers is the timeline's buffer metrics, folded sample by sample.
	// It is unexported, so the JSON encoding carries only Timeline.
	buffers bufferFold
}

// bufferFold accumulates the buffer metrics of the timeline one sample at
// a time, in sample order, so a session that keeps no Timeline still has
// them: the sample count, the sum and maximum of |audio − video|, and the
// min(audio, video) levels that seal summarizes.
type bufferFold struct {
	n              int
	imbSum, imbMax time.Duration
	// mins holds min(audio, video) in seconds, in sample order, until seal
	// summarizes it into health.
	mins   []float64
	health stats.Summary
}

// add folds one sample's buffer levels.
func (f *bufferFold) add(video, audio time.Duration) {
	d := audio - video
	if d < 0 {
		d = -d
	}
	f.n++
	f.imbSum += d
	f.imbMax = max(f.imbMax, d)
	f.mins = append(f.mins, min(video, audio).Seconds())
}

// seal summarizes the min-buffer levels after the last sample. The summary
// reorders mins in place, so mins is dropped with it; seal returns its
// backing array, emptied, for reuse.
func (f *bufferFold) seal() []float64 {
	if f.n > 0 {
		f.health = stats.SummarizeScratch(f.mins)
	}
	mins := f.mins[:0]
	f.mins = nil
	return mins
}

// TransportStats is the session-level rollup of its connections'
// accounting (two connections under demuxed HTTP/1.1 or split hosts, one
// otherwise).
type TransportStats struct {
	// Protocol is the configured transport ("h1", "h2", "h3").
	Protocol string
	netsim.ConnStats
}

// WastedFaultBytes sums the bytes downloaded by requests that then failed
// (reset, truncation, timeout) — transferred but never played.
func (r *Result) WastedFaultBytes() int64 {
	var total int64
	for _, f := range r.Faults {
		total += f.WastedBytes
	}
	return total
}

// RebufferTime returns the total stall duration (excluding startup).
func (r *Result) RebufferTime() time.Duration {
	var total time.Duration
	for _, s := range r.Stalls {
		total += s.Duration()
	}
	return total
}

// ChunksOf returns the chunk decisions of one media type, in completion
// order.
func (r *Result) ChunksOf(t media.Type) []ChunkDecision {
	var out []ChunkDecision
	for _, c := range r.Chunks {
		if c.Type == t {
			out = append(out, c)
		}
	}
	return out
}

// ByIndex returns, for each media type, the track of the last completed
// download of each chunk index, nil where none completed. The audio and
// video decisions of one chunk position meet at equal index: every
// pairing of the session (the combinations selected, off-manifest
// positions) reads it.
func (r *Result) ByIndex() [2][]*media.Track {
	sel, _ := r.ByIndexIn(nil)
	return sel
}

// ByIndexIn is ByIndex building its table in buf when buf has room for
// it. It returns the table and the array it is in (buf, or a larger one),
// for a caller that builds the tables of many sessions in turn to pass to
// the next call; the table is valid until then.
func (r *Result) ByIndexIn(buf []*media.Track) ([2][]*media.Track, []*media.Track) {
	var n [2]int
	for _, c := range r.Chunks {
		n[c.Type] = max(n[c.Type], c.Index+1)
	}
	all := buf[:0]
	if size := n[media.Video] + n[media.Audio]; cap(all) >= size {
		all = all[:size]
		clear(all)
	} else {
		all = make([]*media.Track, size)
	}
	var sel [2][]*media.Track
	sel[media.Video] = all[:n[media.Video]:n[media.Video]]
	sel[media.Audio] = all[n[media.Video]:]
	for _, c := range r.Chunks {
		sel[c.Type][c.Index] = c.Track
	}
	return sel, all
}

// Switches counts selection changes of the given type across consecutive
// chunk decisions, in completion order.
func (r *Result) Switches(t media.Type) int {
	n := 0
	var prev *media.Track
	for _, c := range r.Chunks {
		if c.Type != t {
			continue
		}
		if prev != nil && c.Track != prev {
			n++
		}
		prev = c.Track
	}
	return n
}

// CombosSelected returns the distinct audio/video combinations selected
// across chunk positions, in first-use order. It pairs the video and audio
// decisions of equal chunk index.
func (r *Result) CombosSelected() []media.Combo { return AppendCombos(nil, r.ByIndex()) }

// AppendCombos appends to out the distinct combinations of a per-index
// selection (as ByIndex returns it), in first-use order: the video and
// audio tracks of each index both types reached, skipping indices where
// either has none. It returns the extended slice, so a caller that only
// counts can pass a stack buffer.
func AppendCombos(out []media.Combo, sel [2][]*media.Track) []media.Combo {
	for i := range min(len(sel[media.Video]), len(sel[media.Audio])) {
		cb := media.Combo{Video: sel[media.Video][i], Audio: sel[media.Audio][i]}
		if cb.Video != nil && cb.Audio != nil && !slices.ContainsFunc(out, cb.SameTracks) {
			out = append(out, cb)
		}
	}
	return out
}

// AvgSelectedBitrate returns the mean average-bitrate of the selected tracks
// of a type, weighted by chunk duration — the y-axis of Fig. 2.
func (r *Result) AvgSelectedBitrate(t media.Type, chunkDur func(int) time.Duration) media.Bps {
	var bitSeconds, seconds float64
	for _, c := range r.Chunks {
		if c.Type != t {
			continue
		}
		d := chunkDur(c.Index).Seconds()
		bitSeconds += float64(c.Track.AvgBitrate) * d
		seconds += d
	}
	if seconds <= 0 {
		return 0
	}
	return media.Bps(bitSeconds / seconds)
}

// MaxBufferImbalance returns the largest |audio buffer − video buffer|
// observed on the timeline — the Fig. 5(b) quantity.
func (r *Result) MaxBufferImbalance() time.Duration { return r.buffers.imbMax }

// MeanBufferImbalance returns the mean |audio buffer − video buffer| over
// the timeline's samples; zero when none was logged.
func (r *Result) MeanBufferImbalance() time.Duration {
	if r.buffers.n == 0 {
		return 0
	}
	return r.buffers.imbSum / time.Duration(r.buffers.n)
}

// BufferHealth summarizes the min(audio, video) buffer level in seconds
// over the timeline's samples, once the session is done; the zero Summary
// when no sample was logged.
func (r *Result) BufferHealth() stats.Summary { return r.buffers.health }
