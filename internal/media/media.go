// Package media models ABR media content with separate (demuxed) audio and
// video tracks: bitrate ladders, per-chunk sizes, and audio/video track
// combinations.
//
// The package ships the exact content used in the paper "ABR Streaming with
// Separate Audio and Video Tracks" (CoNEXT 2019): the YouTube drama show of
// Table 1 with its three audio ladders (A, B, C) and the combination sets of
// Tables 2 and 3.
package media

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Type distinguishes audio from video tracks.
type Type int

const (
	// Video is a video track or stream.
	Video Type = iota
	// Audio is an audio track or stream.
	Audio
)

// String returns "video" or "audio".
func (t Type) String() string {
	switch t {
	case Video:
		return "video"
	case Audio:
		return "audio"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Bps is a bitrate in bits per second.
type Bps int64

// Kbps constructs a bitrate from a value in kilobits per second.
func Kbps(v float64) Bps { return Bps(v * 1000) }

// Kbps reports the bitrate in kilobits per second.
func (b Bps) Kbps() float64 { return float64(b) / 1000 }

// String renders the bitrate in human units.
func (b Bps) String() string {
	switch {
	case b >= 1_000_000:
		return fmt.Sprintf("%.2fMbps", float64(b)/1e6)
	case b >= 1_000:
		return fmt.Sprintf("%.0fKbps", float64(b)/1e3)
	default:
		return fmt.Sprintf("%dbps", int64(b))
	}
}

// Track describes one encoded variant of the audio or the video component.
type Track struct {
	// ID is the short name used throughout the paper, e.g. "V3" or "A2".
	ID string
	// Type is Audio or Video.
	Type Type
	// AvgBitrate is the measured average encoding bitrate.
	AvgBitrate Bps
	// PeakBitrate is the measured peak encoding bitrate.
	PeakBitrate Bps
	// DeclaredBitrate is the bandwidth the manifest declares for the track
	// (the DASH @bandwidth attribute; close to the peak bitrate).
	DeclaredBitrate Bps

	// Resolution is the video resolution label (e.g. "480p"); video only.
	Resolution string
	// Channels is the audio channel count; audio only.
	Channels int
	// SampleRateHz is the audio sampling rate; audio only.
	SampleRateHz int
	// Language is the audio language tag (e.g. "en", "es"); empty when the
	// content has a single language. One §1 motivation for demuxed tracks
	// is exactly this: audio variants multiply across languages while the
	// video tracks are shared.
	Language string
}

// String returns the track ID.
func (t *Track) String() string { return t.ID }

// Ladder is an ordered list of tracks of one type, lowest bitrate first.
type Ladder []*Track

// IDs returns the track IDs in ladder order.
func (l Ladder) IDs() []string {
	ids := make([]string, len(l))
	for i, t := range l {
		ids[i] = t.ID
	}
	return ids
}

// ByID returns the track with the given ID, or nil.
func (l Ladder) ByID(id string) *Track {
	for _, t := range l {
		if t.ID == id {
			return t
		}
	}
	return nil
}

// Index returns the position of tr in the ladder, or -1.
func (l Ladder) Index(tr *Track) int {
	for i, t := range l {
		if t == tr {
			return i
		}
	}
	return -1
}

// Validate checks that the ladder is non-empty, homogeneous in type, and
// sorted by increasing declared bitrate.
func (l Ladder) Validate() error {
	if len(l) == 0 {
		return fmt.Errorf("media: empty ladder")
	}
	typ := l[0].Type
	for i, t := range l {
		if t == nil {
			return fmt.Errorf("media: nil track at index %d", i)
		}
		if t.Type != typ {
			return fmt.Errorf("media: mixed track types in ladder (%s is %s, want %s)", t.ID, t.Type, typ)
		}
		if t.DeclaredBitrate <= 0 {
			return fmt.Errorf("media: track %s has non-positive declared bitrate", t.ID)
		}
		if i > 0 && l[i-1].DeclaredBitrate > t.DeclaredBitrate {
			return fmt.Errorf("media: ladder not sorted by declared bitrate at %s", t.ID)
		}
	}
	return nil
}

// Combo is a pairing of one video track with one audio track — the unit of
// selection for joint audio/video adaptation.
type Combo struct {
	Video *Track
	Audio *Track
}

// AvgBitrate is the sum of the tracks' average bitrates.
func (c Combo) AvgBitrate() Bps { return c.Video.AvgBitrate + c.Audio.AvgBitrate }

// PeakBitrate is the sum of the tracks' peak bitrates (the HLS BANDWIDTH
// attribute of the variant).
func (c Combo) PeakBitrate() Bps { return c.Video.PeakBitrate + c.Audio.PeakBitrate }

// DeclaredBitrate is the sum of the tracks' declared bitrates (the bandwidth
// requirement a DASH client computes for the pair).
func (c Combo) DeclaredBitrate() Bps { return c.Video.DeclaredBitrate + c.Audio.DeclaredBitrate }

// SameTracks reports whether o pairs the same video and audio tracks as c.
// It compares by ID: clients that reconstruct tracks from manifests (§4.1
// media-playlist recovery) hold distinct Track values for the same
// underlying track.
func (c Combo) SameTracks(o Combo) bool {
	return c.Video.ID == o.Video.ID && c.Audio.ID == o.Audio.ID
}

// String renders the combination as in the paper, e.g. "V3+A2".
func (c Combo) String() string {
	v, a := "?", "?"
	if c.Video != nil {
		v = c.Video.ID
	}
	if c.Audio != nil {
		a = c.Audio.ID
	}
	return v + "+" + a
}

// AllCombos returns the full cross product of the video and audio ladders,
// sorted by increasing peak bitrate (the order of Table 2 / manifest H_all).
func AllCombos(video, audio Ladder) []Combo {
	combos := make([]Combo, 0, len(video)*len(audio))
	for _, v := range video {
		for _, a := range audio {
			combos = append(combos, Combo{Video: v, Audio: a})
		}
	}
	sort.SliceStable(combos, func(i, j int) bool {
		return combos[i].PeakBitrate() < combos[j].PeakBitrate()
	})
	return combos
}

// PairCombos builds a curated combination list by pairing video track i with
// the audio track whose ladder position proportionally matches, associating
// high-quality video with high-quality audio (the construction of manifest
// H_sub: V1+A1, V2+A1, V3+A2, V4+A2, V5+A3, V6+A3 for a 6x3 ladder).
func PairCombos(video, audio Ladder) []Combo {
	m, n := len(video), len(audio)
	combos := make([]Combo, m)
	for i, v := range video {
		// Audio index interpolates the ladder positions: the lowest video
		// pairs with the lowest audio, the highest with the highest.
		j := n - 1
		if m > 1 {
			j = (i*(n-1)*2 + (m - 1)) / ((m - 1) * 2) // round(i*(n-1)/(m-1))
		}
		combos[i] = Combo{Video: v, Audio: audio[j]}
	}
	return combos
}

// Content is a complete demuxed media asset: its ladders, chunking, and
// deterministic per-chunk sizes.
//
// Every content carries one chunk boundary table per track type. A content
// built without explicit chunk durations tiles Duration with
// ChunkDuration-long chunks (the final chunk may be short), so its two
// tables are equal and every lookup returns what the nominal arithmetic
// would. Shaped content (built from a spec with explicit per-chunk
// durations, e.g. by internal/shaping) may give audio and video timelines
// that disagree in both chunk count and chunk edges.
type Content struct {
	// Name identifies the asset (e.g. "drama-show").
	Name string
	// Duration is the total playback duration.
	Duration time.Duration
	// ChunkDuration is the nominal chunk duration: the duration of every
	// chunk of a uniform timeline (the last may be short), and the value
	// buffers and part targets are derived from for shaped content, whose
	// actual chunk edges come from its boundary tables.
	ChunkDuration time.Duration
	// VideoTracks and AudioTracks are the ladders, lowest bitrate first.
	VideoTracks Ladder
	AudioTracks Ladder

	// starts holds the per-type chunk boundary tables: starts[t][i] is the
	// start offset of chunk i, plus a final entry equal to Duration
	// (len = chunks+1). A uniform table's entry i is exactly
	// i·ChunkDuration; durations are integer nanoseconds, so no rounding
	// separates it from the nominal arithmetic.
	starts    [2][]time.Duration
	irregular [2]bool // starts[t] came from explicit spec durations
	aligned   bool    // starts[Video] and starts[Audio] are equal

	sizes map[string][]int64 // track ID -> per-chunk sizes in bytes

	// Cached combination expansions (HAll/HSub); built on first use.
	// Everything else in Content is immutable after construction, so the
	// once-guards are the only synchronization content sharing needs.
	hallOnce sync.Once
	hall     []Combo
	hsubOnce sync.Once
	hsub     []Combo
}

// NumChunks returns the number of chunks in the video timeline. Shaped
// content can have a different audio chunk count; use NumChunksOf.
func (c *Content) NumChunks() int { return c.NumChunksOf(Video) }

// NumChunksOf returns the number of chunks in the given type's timeline.
func (c *Content) NumChunksOf(t Type) int { return len(c.starts[t]) - 1 }

// ChunkDurationAt returns the duration of chunk i of the video timeline.
// Shaped content can have a different audio timeline; use ChunkDurationOf.
func (c *Content) ChunkDurationAt(i int) time.Duration {
	return c.ChunkDurationOf(Video, i)
}

// ChunkDurationOf returns the duration of chunk i of the given type's
// timeline, or 0 when i is out of range.
func (c *Content) ChunkDurationOf(t Type, i int) time.Duration {
	s := c.starts[t]
	if i < 0 || i >= len(s)-1 {
		return 0
	}
	return s[i+1] - s[i]
}

// ChunkStartOf returns the playback offset at which chunk i of the given
// type's timeline begins. i may equal the chunk count, in which case the
// result is Duration (the exclusive end of the last chunk).
func (c *Content) ChunkStartOf(t Type, i int) time.Duration {
	s := c.starts[t]
	if i < 0 {
		return 0
	}
	if i >= len(s) {
		return c.Duration
	}
	return s[i]
}

// ChunkIndexAt returns the index of the chunk of the given type's timeline
// that covers playback position pos (clamped into [0, Duration)).
func (c *Content) ChunkIndexAt(t Type, pos time.Duration) int {
	s := c.starts[t]
	n := len(s) - 1
	if pos <= 0 || n <= 0 {
		return 0
	}
	// First chunk whose end lies beyond pos.
	idx := sort.Search(n, func(i int) bool { return s[i+1] > pos })
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// ChunkTimeline returns the cumulative boundary table of the given type's
// timeline: entry i is the start of chunk i, with a final entry equal to
// Duration (len = chunks+1). It is the content's own table — callers must
// treat it as read-only.
func (c *Content) ChunkTimeline(t Type) []time.Duration { return c.starts[t] }

// Irregular reports whether the given type's timeline came from explicit
// per-chunk durations (shaped content) rather than uniform nominal
// chunking.
func (c *Content) Irregular(t Type) bool { return c.irregular[t] }

// Aligned reports whether the audio and video timelines share identical
// chunk boundaries — the regime every shared-chunk-index consumer (joint
// scheduling, muxed packaging, index-paired combination accounting)
// requires. Uniform content is trivially aligned.
func (c *Content) Aligned() bool { return c.aligned }

// MaxChunkDurationOf returns the longest chunk duration in the given type's
// timeline — what RFC 8216 requires EXT-X-TARGETDURATION to cover. Uniform
// timelines return the nominal ChunkDuration.
func (c *Content) MaxChunkDurationOf(t Type) time.Duration {
	s := c.starts[t]
	var max time.Duration
	for i := 0; i+1 < len(s); i++ {
		if d := s[i+1] - s[i]; d > max {
			max = d
		}
	}
	return max
}

// ChunkSize returns the size in bytes of chunk i of the given track.
func (c *Content) ChunkSize(tr *Track, i int) int64 {
	s, ok := c.sizes[tr.ID]
	if !ok || i < 0 || i >= len(s) {
		return 0
	}
	return s[i]
}

// TrackSizes returns the precomputed per-chunk byte sizes of a track, or
// nil for an unknown track. The slice is the content's own table — callers
// must treat it as read-only. Hot loops (the CDN workloads) index it
// directly instead of paying ChunkSize's map lookup per chunk.
func (c *Content) TrackSizes(tr *Track) []int64 { return c.sizes[tr.ID] }

// TrackBytes returns the total size of a track across all chunks.
func (c *Content) TrackBytes(tr *Track) int64 {
	var total int64
	for _, s := range c.sizes[tr.ID] {
		total += s
	}
	return total
}

// Tracks returns all tracks, video first.
func (c *Content) Tracks() []*Track {
	out := make([]*Track, 0, len(c.VideoTracks)+len(c.AudioTracks))
	out = append(out, c.VideoTracks...)
	out = append(out, c.AudioTracks...)
	return out
}

// TrackByID finds a track in either ladder, or returns nil.
func (c *Content) TrackByID(id string) *Track {
	if t := c.VideoTracks.ByID(id); t != nil {
		return t
	}
	return c.AudioTracks.ByID(id)
}

// Validate checks ladders and chunk-size completeness.
func (c *Content) Validate() error {
	if err := c.VideoTracks.Validate(); err != nil {
		return fmt.Errorf("video: %w", err)
	}
	if err := c.AudioTracks.Validate(); err != nil {
		return fmt.Errorf("audio: %w", err)
	}
	if c.VideoTracks[0].Type != Video {
		return fmt.Errorf("media: video ladder holds %s tracks", c.VideoTracks[0].Type)
	}
	if c.AudioTracks[0].Type != Audio {
		return fmt.Errorf("media: audio ladder holds %s tracks", c.AudioTracks[0].Type)
	}
	if c.ChunkDuration <= 0 || c.Duration <= 0 {
		return fmt.Errorf("media: non-positive duration")
	}
	for _, typ := range []Type{Video, Audio} {
		s := c.starts[typ]
		if len(s) < 2 || s[0] != 0 {
			return fmt.Errorf("media: %s boundary table must start at 0 with at least one chunk", typ)
		}
		for i := 1; i < len(s); i++ {
			if s[i] <= s[i-1] {
				return fmt.Errorf("media: %s boundary table not strictly increasing at entry %d", typ, i)
			}
		}
		if last := s[len(s)-1]; last != c.Duration {
			return fmt.Errorf("media: %s boundary table ends at %v, want %v", typ, last, c.Duration)
		}
	}
	for _, t := range c.Tracks() {
		n := c.NumChunksOf(t.Type)
		if got := len(c.sizes[t.ID]); got != n {
			return fmt.Errorf("media: track %s has %d chunk sizes, want %d", t.ID, got, n)
		}
	}
	return nil
}
