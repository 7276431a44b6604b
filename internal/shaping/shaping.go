// Package shaping is the offline content-preparation stage: given a title's
// encoding spec, it searches chunk boundaries and ladder rungs against a
// simulated QoE objective, per track type — the Segue-style "content-aware
// chunking + per-title ladder" pipeline, run before any manifest is written.
//
// The pipeline has three deterministic, seeded stages:
//
//  1. A scene model: a piecewise-constant complexity signal over media time
//     (scene-change-like breakpoints from VBR complexity). The same signal
//     feeds both the optimizer and the chunk-size synthesis
//     (media.ChunkModel.Scenes), so "fixed" and "shaped" variants of one
//     title integrate the same underlying content.
//  2. A boundary search per track type: dynamic programming over a fixed
//     grid of candidate boundaries, trading per-request overhead against
//     within-chunk complexity variance (video boundaries snap to scene
//     changes; audio, whose complexity is flat, settles on longer
//     near-uniform chunks — deliberately misaligned with video).
//  3. A per-title video ladder search: greedy rung selection from multiple
//     starts over a candidate bitrate grid, scored by expected log-utility
//     over a seeded bandwidth distribution. Starts are evaluated via
//     runpool, so -parallel N produces byte-identical plans to a serial run.
//
// Everything is pure computation on the spec — no wall clock, no global
// rand; the same Config always yields the same Plan (the shaping-determinism
// gate in check.sh serializes the Plan and compares bytes).
package shaping

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"demuxabr/internal/media"
)

// Config parameterizes one shaping run; Seed 0 is a valid seed.
type Config struct {
	// Seed drives the scene model and the bandwidth samples of the ladder
	// objective. Same seed, same spec ⇒ same Plan, bit for bit.
	Seed int64

	// Workers fans the ladder search's greedy restarts out via runpool
	// (0 ⇒ GOMAXPROCS, 1 ⇒ serial). Output is identical for any value.
	Workers int
}

// grid is the candidate-boundary spacing. Scene durations and every chunk
// boundary are multiples of it, so chunk durations survive millisecond
// manifest serialization exactly.
const grid = 500 * time.Millisecond

// Plan is the output of one shaping run: the complete offline decision for
// one title. Apply it to the title's spec with Spec, or serialize it with
// Fingerprint for the determinism gate.
type Plan struct {
	Title string
	Seed  int64

	// Scenes is the generated complexity signal; both the shaped variant
	// and any fixed-chunking baseline of the same title should synthesize
	// sizes from it (media.ChunkModel.Scenes) so the comparison holds the
	// content constant.
	Scenes []media.Scene

	// VideoChunks / AudioChunks are the searched per-chunk durations; each
	// sums exactly to the title duration.
	VideoChunks []time.Duration
	AudioChunks []time.Duration

	// VideoLadder is the searched per-title ladder (same rung count and
	// metadata as the input ladder, re-placed bitrates). The audio ladder
	// is kept as authored: its rungs are product decisions (channel
	// layouts, languages), not rate-distortion points.
	VideoLadder media.Ladder

	// VideoCost / AudioCost are the boundary objective values; LadderScore
	// is the expected log-utility of the chosen ladder.
	VideoCost, AudioCost float64
	LadderScore          float64
}

// Optimize runs the full pipeline for one title.
func Optimize(spec media.ContentSpec, cfg Config) (*Plan, error) {
	if spec.Duration <= 0 {
		return nil, fmt.Errorf("shaping: spec %q has no duration", spec.Name)
	}
	if len(spec.VideoTracks) == 0 {
		return nil, fmt.Errorf("shaping: spec %q has no video ladder", spec.Name)
	}
	scenes := GenerateScenes(cfg.Seed, spec.Duration)
	cells := cellComplexities(scenes, spec.Duration)

	p := &Plan{Title: spec.Name, Seed: cfg.Seed, Scenes: scenes}
	var err error
	if p.VideoChunks, p.VideoCost, err = optimizeBoundaries(cells, spec.Duration, videoBoundary); err != nil {
		return nil, fmt.Errorf("shaping: video boundaries: %w", err)
	}
	flat := make([]float64, len(cells))
	for i := range flat {
		flat[i] = 1
	}
	if p.AudioChunks, p.AudioCost, err = optimizeBoundaries(flat, spec.Duration, audioBoundary); err != nil {
		return nil, fmt.Errorf("shaping: audio boundaries: %w", err)
	}
	if p.VideoLadder, p.LadderScore, err = searchLadder(spec.VideoTracks, cfg); err != nil {
		return nil, fmt.Errorf("shaping: ladder: %w", err)
	}
	return p, nil
}

// Spec returns the spec with the plan applied: searched chunk tables, the
// searched video ladder, and the scene model wired into size synthesis. The
// input spec is not modified.
func (p *Plan) Spec(base media.ContentSpec) media.ContentSpec {
	out := base
	out.VideoChunks = p.VideoChunks
	out.AudioChunks = p.AudioChunks
	if len(p.VideoLadder) > 0 {
		out.VideoTracks = p.VideoLadder
	}
	out.Model.Scenes = p.Scenes
	return out
}

// FixedSpec returns the fixed-chunking baseline of the same title: uniform
// chunks and the authored ladder, but sizes synthesized from the SAME scene
// signal — the apples-to-apples counterpart of Spec.
func (p *Plan) FixedSpec(base media.ContentSpec) media.ContentSpec {
	out := base
	out.Model.Scenes = p.Scenes
	return out
}

// Fingerprint serializes the plan deterministically (for golden comparisons
// and the shaping-determinism gate).
func (p *Plan) Fingerprint() []byte {
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		// Plan holds only plain data; marshaling cannot fail.
		panic(err)
	}
	return append(b, '\n')
}

// GenerateScenes draws the seeded piecewise-constant complexity signal:
// scene durations uniform in [2s, 12s] (quantized to the 500 ms boundary
// grid), complexities log-normal around 1, clamped to [0.4, 2.2]. The final
// scene is truncated to land exactly on total.
func GenerateScenes(seed int64, total time.Duration) []media.Scene {
	rng := rand.New(rand.NewSource(seed ^ 0x5ce7e5))
	var out []media.Scene
	var at time.Duration
	for at < total {
		d := 2*time.Second + time.Duration(rng.Int63n(int64(10*time.Second)))
		d = d / grid * grid
		if d < grid {
			d = grid
		}
		if at+d > total {
			d = total - at
		}
		c := math.Exp(0.45 * rng.NormFloat64())
		c = math.Max(0.4, math.Min(c, 2.2))
		out = append(out, media.Scene{Duration: d, Complexity: c})
		at += d
	}
	return out
}

// cellComplexities samples the scene signal onto the boundary grid: one
// mean complexity per grid cell (the last cell may be shorter than grid).
func cellComplexities(scenes []media.Scene, total time.Duration) []float64 {
	n := int((total + grid - 1) / grid)
	out := make([]float64, n)
	for i := range out {
		from := time.Duration(i) * grid
		to := from + grid
		if to > total {
			to = total
		}
		out[i] = media.MeanComplexity(scenes, from, to)
	}
	return out
}
