package experiments

import (
	"fmt"
	"time"

	"demuxabr/internal/core"
	"demuxabr/internal/media"
	"demuxabr/internal/qoe"
	"demuxabr/internal/trace"
)

// CurationResult contrasts a generic proportional pairing with a
// content-appropriate curated combination list (§2.1: "for music shows,
// the sound quality may be relatively more important than video quality
// ... for an action movie, the desirable combinations may be the
// opposite"). Both players run the same algorithm on the same link; only
// the server-declared list differs. QoE is scored with content-appropriate
// weights (audio weighs double for the music show, half for the action
// movie).
type CurationResult struct {
	Content string
	Generic Outcome
	Curated Outcome
}

// musicCuration pairs every rung with the best audio the ladder offers
// early: sound first.
func musicCuration(c *media.Content) []media.Combo {
	v, a := c.VideoTracks, c.AudioTracks
	top := a[len(a)-1]
	out := []media.Combo{
		{Video: v[0], Audio: a[1]},
		{Video: v[0], Audio: top},
	}
	for _, video := range v[1:] {
		out = append(out, media.Combo{Video: video, Audio: top})
	}
	return out
}

// actionCuration spends on pixels first: audio stays low until video is
// near the top.
func actionCuration(c *media.Content) []media.Combo {
	v, a := c.VideoTracks, c.AudioTracks
	out := make([]media.Combo, 0, len(v)+1)
	for i, video := range v {
		audio := a[0]
		if i >= len(v)-2 {
			audio = a[1]
		}
		if i == len(v)-1 {
			audio = a[len(a)-1]
		}
		out = append(out, media.Combo{Video: video, Audio: audio})
	}
	return out
}

// ContentCuration runs both content types at 1.3 Mbps with and without
// content-appropriate curation.
func ContentCuration() ([]CurationResult, error) {
	link := trace.Fixed(media.Kbps(1300))
	cases := []struct {
		content *media.Content
		curated func(*media.Content) []media.Combo
		weights qoe.Weights
	}{
		{media.MusicShow(), musicCuration, weightedAudio(2)},
		{media.ActionMovie(), actionCuration, weightedAudio(0.5)},
	}
	var out []CurationResult
	for _, tc := range cases {
		generic, err := runCuration(tc.content, link, media.HSub(tc.content), tc.weights)
		if err != nil {
			return nil, err
		}
		curated, err := runCuration(tc.content, link, tc.curated(tc.content), tc.weights)
		if err != nil {
			return nil, err
		}
		out = append(out, CurationResult{Content: tc.content.Name, Generic: generic, Curated: curated})
	}
	return out, nil
}

func weightedAudio(w float64) qoe.Weights {
	weights := qoe.DefaultWeights()
	weights.AudioWeight = w
	return weights
}

// runCuration streams the best-practice player over the server-declared
// combination list and scores the session with the content's weights.
func runCuration(c *media.Content, profile trace.Profile, combos []media.Combo, weights qoe.Weights) (Outcome, error) {
	out, err := playToEnd(core.Spec{Content: c, Profile: profile, Player: core.BestPractice, Manifest: core.ManifestOptions{Combos: combos}})
	if err != nil {
		return Outcome{}, fmt.Errorf("curation run on %s: %w", c.Name, err)
	}
	out.Metrics = qoe.Compute(out.Result, c, out.Allowed, weights)
	return out, nil
}

// ChunkDurationPoint is one cell of the chunking sweep.
type ChunkDurationPoint struct {
	ChunkSeconds float64
	Outcome      Outcome
}

// ChunkDurationSweep re-chunks the Table 1 content at several segment
// durations and streams it with the best-practice player over a 900 Kbps
// link with a 100 ms request RTT. Short chunks pay the per-request RTT tax
// (two requests per position) and long chunks raise the startup delay and
// coarsen adaptation — the trade-off behind the industry's 2-10 s
// segmentations and the paper's chunk-level synchronization advice.
func ChunkDurationSweep(chunkSecs []float64) ([]ChunkDurationPoint, error) {
	var out []ChunkDurationPoint
	for _, cs := range chunkSecs {
		content, err := media.NewContent(media.ContentSpec{
			Name:          fmt.Sprintf("drama-%gs", cs),
			Duration:      media.DramaDuration,
			ChunkDuration: time.Duration(cs * float64(time.Second)),
			VideoTracks:   media.DramaVideoLadder(),
			AudioTracks:   media.DramaAudioLadder(),
			Model:         media.DefaultChunkModel(),
		})
		if err != nil {
			return nil, err
		}
		o, err := playToEnd(core.Spec{
			Content: content,
			Profile: trace.Fixed(media.Kbps(900)),
			Player:  core.BestPractice,
			RTT:     100 * time.Millisecond,
		})
		if err != nil {
			return nil, fmt.Errorf("%g s chunks: %w", cs, err)
		}
		out = append(out, ChunkDurationPoint{ChunkSeconds: cs, Outcome: o})
	}
	return out, nil
}
