// Package abr defines the interfaces between the player engine and
// adaptation algorithms: decision state, download observations, and the two
// decision styles found in real players — joint audio/video selection
// (ExoPlayer, Shaka, and the paper's §4 best practice) and independent
// per-type selection (dash.js).
package abr

import (
	"math"
	"time"

	"demuxabr/internal/media"
)

// State is the snapshot an algorithm sees when making a decision.
type State struct {
	// Now is the current virtual time.
	Now time.Duration
	// PlayPos is the playback position.
	PlayPos time.Duration
	// VideoBuffer and AudioBuffer are the buffered durations per type.
	VideoBuffer time.Duration
	AudioBuffer time.Duration
	// ChunkIndex is the chunk position being decided.
	ChunkIndex int
	// ChunkDuration is the nominal chunk duration of the content.
	ChunkDuration time.Duration
	// Startup is true until playback first begins.
	Startup bool
	// LastVideo and LastAudio are the previously selected tracks (nil before
	// the first decision).
	LastVideo *media.Track
	LastAudio *media.Track
	// Live-session fields; all zero for VOD sessions. Latency is the
	// live-edge latency (how far the playhead trails the stream edge),
	// LatencyTarget the configured target, and PlaybackRate the current
	// catch-up controller rate (0 means "not a live session", never
	// "paused").
	Latency       time.Duration
	LatencyTarget time.Duration
	PlaybackRate  float64
}

// Buffer returns the buffered duration for one type.
func (s State) Buffer(t media.Type) time.Duration {
	if t == media.Video {
		return s.VideoBuffer
	}
	return s.AudioBuffer
}

// MinBuffer returns the smaller of the two buffer levels — the quantity that
// determines stalls, since playback needs both streams.
func (s State) MinBuffer() time.Duration {
	if s.VideoBuffer < s.AudioBuffer {
		return s.VideoBuffer
	}
	return s.AudioBuffer
}

// TransferInfo describes a download event delivered to observers.
type TransferInfo struct {
	// Type is the media type of the transfer.
	Type media.Type
	// Bytes moved: the whole transfer for start/complete events, or the
	// bytes within the interval for progress events.
	Bytes float64
	// Duration of the transfer (complete events) or of the sampling
	// interval (progress events); zero for start events.
	Duration time.Duration
	// At is the virtual time of the event.
	At time.Duration
}

// Throughput returns the event's bits/s, or 0 if Duration is zero.
func (ti TransferInfo) Throughput() float64 {
	if ti.Duration <= 0 {
		return 0
	}
	return ti.Bytes * 8 / ti.Duration.Seconds()
}

// Observer receives download lifecycle events. All algorithms embed one to
// feed their bandwidth estimators.
type Observer interface {
	// OnStart fires when a transfer's first byte moves.
	OnStart(TransferInfo)
	// OnProgress fires every sampling interval of an active transfer.
	OnProgress(TransferInfo)
	// OnComplete fires when a transfer finishes.
	OnComplete(TransferInfo)
}

// NopObserver is an Observer that ignores everything; embed it to implement
// only the hooks an algorithm needs.
type NopObserver struct{}

// OnStart implements Observer.
func (NopObserver) OnStart(TransferInfo) {}

// OnProgress implements Observer.
func (NopObserver) OnProgress(TransferInfo) {}

// OnComplete implements Observer.
func (NopObserver) OnComplete(TransferInfo) {}

// Algorithm is the base of both decision styles.
type Algorithm interface {
	Observer
	// Name identifies the algorithm in logs and results.
	Name() string
}

// JointAlgorithm decides audio and video together, one combination per chunk
// position (ExoPlayer, Shaka, best-practice joint adaptation).
type JointAlgorithm interface {
	Algorithm
	// SelectCombo picks the audio/video pair for chunk st.ChunkIndex.
	SelectCombo(st State) media.Combo
}

// PerTypeAlgorithm decides each media type independently (dash.js).
type PerTypeAlgorithm interface {
	Algorithm
	// SelectTrack picks the track of type typ for that type's next chunk.
	SelectTrack(typ media.Type, st State) *media.Track
}

// DownloadProgress describes an in-flight chunk download, offered to
// abandonment-capable algorithms on every progress sample.
type DownloadProgress struct {
	// Type and Track identify the download; ChunkIndex its position.
	Type       media.Type
	Track      *media.Track
	ChunkIndex int
	// BytesDone of BytesTotal have arrived after Elapsed.
	BytesDone  float64
	BytesTotal int64
	Elapsed    time.Duration
	// Buffer is the buffered duration of this type right now.
	Buffer time.Duration
	// Attempt counts prior abandonments of this chunk position and type
	// (0 = first attempt).
	Attempt int
}

// Rate returns the download's achieved throughput so far in bits/s.
func (p DownloadProgress) Rate() float64 {
	if p.Elapsed <= 0 {
		return 0
	}
	return p.BytesDone * 8 / p.Elapsed.Seconds()
}

// RemainingTime estimates how long the rest of the chunk needs at the
// achieved rate (infinite when nothing has arrived).
func (p DownloadProgress) RemainingTime() time.Duration {
	rate := p.Rate()
	if rate <= 0 {
		return time.Duration(1<<62 - 1)
	}
	secs := (float64(p.BytesTotal) - p.BytesDone) * 8 / rate
	return time.Duration(secs * float64(time.Second))
}

// Abandoner is implemented by algorithms that can cancel an in-flight chunk
// download and restart it on a cheaper track (ExoPlayer's and dash.js's
// abandonment rules). Returning nil keeps the download; returning a
// different track of the same type cancels and refetches.
type Abandoner interface {
	Abandon(p DownloadProgress) *media.Track
}

// BandwidthReporter is implemented by algorithms that expose their internal
// bandwidth estimate; the player logs it for the figures.
type BandwidthReporter interface {
	// BandwidthEstimate returns the current estimate; ok is false when the
	// algorithm has no estimate yet.
	BandwidthEstimate() (bps media.Bps, ok bool)
}

// HighestAtMost returns the highest-bitrate combo whose declared aggregate
// bitrate is at most budget, or the lowest combo if none fits. Combos must
// be sorted by increasing bitrate.
func HighestAtMost(combos []media.Combo, budget media.Bps, bitrate func(media.Combo) media.Bps) media.Combo {
	best := combos[0]
	for _, c := range combos {
		if bitrate(c) <= budget {
			best = c
		}
	}
	return best
}

// HighestTrackAtMost returns the highest track with declared bitrate at most
// budget, or the lowest track if none fits.
func HighestTrackAtMost(ladder media.Ladder, budget media.Bps) *media.Track {
	best := ladder[0]
	for _, t := range ladder {
		if t.DeclaredBitrate <= budget {
			best = t
		}
	}
	return best
}

// Allowed is a server-allowed combination list prepared once for the
// joint models: the combinations in ascending declared bitrate, ties in
// list order, and each one's log-bitrate utility relative to the lowest.
// It is never written after NewAllowed returns, so the models of any
// number of sessions, on any goroutines, can share one: a manifest parse
// builds it, and a model built from the parse allocates neither the sorted
// copy nor the table.
type Allowed struct {
	combos    []media.Combo
	utilities []float64
}

// NewAllowed sorts a copy of combos by declared bitrate (a stable
// insertion sort: the lists are short) and derives the utilities. It
// panics on an empty list: every model built from an Allowed indexes its
// lowest combination, so this is the one check that it exists.
func NewAllowed(combos []media.Combo) *Allowed {
	if len(combos) == 0 {
		panic("abr: empty allowed combination list")
	}
	sorted := make([]media.Combo, len(combos))
	copy(sorted, combos)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j-1].DeclaredBitrate() > sorted[j].DeclaredBitrate(); j-- {
			sorted[j-1], sorted[j] = sorted[j], sorted[j-1]
		}
	}
	a := &Allowed{combos: sorted, utilities: make([]float64, len(sorted))}
	base := math.Log(float64(sorted[0].DeclaredBitrate()))
	for i, cb := range sorted {
		a.utilities[i] = math.Log(float64(cb.DeclaredBitrate())) - base
	}
	return a
}

// Combos returns the sorted combinations. Callers must not modify them.
func (a *Allowed) Combos() []media.Combo { return a.combos }

// Utilities returns, per sorted combination, ln(declared bitrate) minus
// ln(the lowest declared bitrate). Callers must not modify them.
func (a *Allowed) Utilities() []float64 { return a.utilities }
