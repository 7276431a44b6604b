package media

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"
)

// ChunkModel controls how per-chunk sizes are synthesized for a track.
//
// Real ABR content is VBR: chunk bitrates scatter around the track average
// with occasional excursions toward the peak. The model draws deterministic
// per-chunk multipliers from a seeded source, normalizes them so the track's
// realized average bitrate matches AvgBitrate closely, and clamps every chunk
// at the track's peak bitrate.
type ChunkModel struct {
	// Seed makes chunk sizes reproducible. Tracks derive per-track streams
	// from Seed and the track ID, so two contents built with equal seeds and
	// ladders have identical chunks.
	Seed int64
	// Spread is the relative standard deviation of chunk bitrates around the
	// average, before clamping (0 gives CBR chunks). Typical video: 0.3.
	Spread float64
	// PeakEvery inserts a near-peak chunk every PeakEvery chunks (0 disables),
	// modelling scene-complexity spikes that define the track peak bitrate.
	// Ignored when Scenes is set.
	PeakEvery int
	// Scenes, when non-empty, anchors complexity to media TIME instead of
	// chunk index: each chunk's multiplier is the time-weighted mean scene
	// complexity over the chunk's own interval (still normalized to mean 1
	// and clamped at the peak). This is what makes offline chunking a real
	// optimization target — re-chunking the same title re-integrates the
	// same underlying signal, instead of redrawing unrelated per-index
	// noise. Empty (the default everywhere outside the shaping stage)
	// keeps the index-based draw byte-identical to pre-scene code.
	Scenes []Scene
}

// Scene is one piecewise-constant span of the scene-anchored complexity
// signal: Complexity multiplies the track's average bitrate for Duration.
type Scene struct {
	Duration   time.Duration
	Complexity float64
}

// DefaultChunkModel is the model used by the content presets: moderately
// variable video chunks with a peak excursion every 8 chunks.
func DefaultChunkModel() ChunkModel {
	return ChunkModel{Seed: 1, Spread: 0.25, PeakEvery: 8}
}

// CBRChunkModel produces constant-bitrate chunks at the track average.
func CBRChunkModel() ChunkModel { return ChunkModel{} }

// trackSeed derives a stable per-track seed from the model seed and track ID.
func (m ChunkModel) trackSeed(id string) int64 {
	h := uint64(1469598103934665603) // FNV-1a offset basis
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return m.Seed ^ int64(h&math.MaxInt64)
}

// MeanComplexity returns the time-weighted mean complexity of scenes over
// [from, to): the signal a chunk's size multiplier integrates, and the one
// the offline shaping stage optimizes chunk edges against.
func MeanComplexity(scenes []Scene, from, to time.Duration) float64 {
	if to <= from {
		return 1
	}
	var weighted float64
	var at time.Duration
	for _, sc := range scenes {
		end := at + sc.Duration
		lo, hi := from, to
		if at > lo {
			lo = at
		}
		if end < hi {
			hi = end
		}
		if hi > lo {
			weighted += sc.Complexity * (hi - lo).Seconds()
		}
		at = end
		if at >= to {
			break
		}
	}
	return weighted / (to - from).Seconds()
}

// sizes generates the per-chunk byte sizes of one track.
func (m ChunkModel) sizes(tr *Track, n int, chunkDur func(int) time.Duration) []int64 {
	rng := rand.New(rand.NewSource(m.trackSeed(tr.ID)))
	avg := float64(tr.AvgBitrate)
	peak := float64(tr.PeakBitrate)
	if peak < avg {
		peak = avg
	}
	mult := make([]float64, n)
	var sum float64
	var start time.Duration
	for i := range mult {
		f := 1.0
		if m.Spread > 0 {
			f += m.Spread * rng.NormFloat64()
		}
		if len(m.Scenes) > 0 {
			// Time-anchored complexity: integrate the scene signal over the
			// chunk's interval (noise above still adds encoder-level texture).
			d := chunkDur(i)
			f += MeanComplexity(m.Scenes, start, start+d) - 1
			start += d
		}
		// Keep chunks within a plausible envelope before normalization.
		f = math.Max(0.4, math.Min(f, peak/avg))
		if len(m.Scenes) == 0 && m.PeakEvery > 0 && (i+1)%m.PeakEvery == 0 {
			f = peak / avg
		}
		mult[i] = f
		sum += f
	}
	// Normalize so the mean multiplier is 1 (realized average == AvgBitrate),
	// then clamp at the peak. Clamping can pull the mean slightly below 1;
	// acceptable since the peak rows are rare.
	norm := float64(n) / sum
	out := make([]int64, n)
	for i := range mult {
		f := math.Min(mult[i]*norm, peak/avg)
		secs := chunkDur(i).Seconds()
		bits := avg * f * secs
		out[i] = int64(bits / 8)
		if out[i] < 1 {
			out[i] = 1
		}
	}
	return out
}

// ContentSpec describes a content asset to synthesize.
type ContentSpec struct {
	Name          string
	Duration      time.Duration
	ChunkDuration time.Duration
	VideoTracks   Ladder
	AudioTracks   Ladder
	Model         ChunkModel

	// VideoChunks / AudioChunks, when non-nil, give explicit per-chunk
	// durations for the type's timeline (they must sum exactly to Duration).
	// nil tiles the type's timeline with ChunkDuration — the default, whose
	// output is byte-identical to content built before variable-duration
	// chunking existed. Offline shaping (internal/shaping) is the intended
	// producer of these tables.
	VideoChunks []time.Duration
	AudioChunks []time.Duration
}

// boundaryTable converts explicit per-chunk durations into a cumulative
// start table (len = chunks+1, last entry == total).
func boundaryTable(durs []time.Duration, total time.Duration) ([]time.Duration, error) {
	starts := make([]time.Duration, len(durs)+1)
	for i, d := range durs {
		if d <= 0 {
			return nil, fmt.Errorf("media: chunk %d has non-positive duration %v", i, d)
		}
		starts[i+1] = starts[i] + d
	}
	if got := starts[len(starts)-1]; got != total {
		return nil, fmt.Errorf("media: chunk durations sum to %v, want %v", got, total)
	}
	return starts, nil
}

// uniformTable tiles total with chunk-long chunks, the last one short when
// chunk does not divide total: entry i is exactly i·chunk, and the final
// entry is total.
func uniformTable(chunk, total time.Duration) []time.Duration {
	starts := make([]time.Duration, 0, int((total+chunk-1)/chunk)+1)
	for at := time.Duration(0); at < total; at += chunk {
		starts = append(starts, at)
	}
	return append(starts, total)
}

// NewContent synthesizes a Content from the spec, generating deterministic
// chunk sizes for every track.
func NewContent(spec ContentSpec) (*Content, error) {
	c := &Content{
		Name:          spec.Name,
		Duration:      spec.Duration,
		ChunkDuration: spec.ChunkDuration,
		VideoTracks:   spec.VideoTracks,
		AudioTracks:   spec.AudioTracks,
		sizes:         make(map[string][]int64),
	}
	if c.ChunkDuration <= 0 {
		return nil, fmt.Errorf("media: chunk duration must be positive")
	}
	if c.Duration < c.ChunkDuration {
		return nil, fmt.Errorf("media: duration %v shorter than one chunk %v", c.Duration, c.ChunkDuration)
	}
	for _, e := range []struct {
		typ  Type
		durs []time.Duration
	}{{Video, spec.VideoChunks}, {Audio, spec.AudioChunks}} {
		if e.durs == nil {
			c.starts[e.typ] = uniformTable(spec.ChunkDuration, spec.Duration)
			continue
		}
		starts, err := boundaryTable(e.durs, spec.Duration)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.typ, err)
		}
		c.starts[e.typ] = starts
		c.irregular[e.typ] = true
	}
	c.aligned = slices.Equal(c.starts[Video], c.starts[Audio])
	for _, tr := range c.Tracks() {
		model := spec.Model
		if tr.Type == Audio {
			// Audio is near-CBR: tight spread, no scene spikes.
			model.Spread = math.Min(model.Spread, 0.02)
			model.PeakEvery = 0
			model.Scenes = nil
		}
		typ := tr.Type
		c.sizes[tr.ID] = model.sizes(tr, c.NumChunksOf(typ), func(i int) time.Duration {
			return c.ChunkDurationOf(typ, i)
		})
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// MustNewContent is NewContent that panics on error; for presets and tests.
func MustNewContent(spec ContentSpec) *Content {
	c, err := NewContent(spec)
	if err != nil {
		panic(err)
	}
	return c
}
