package experiments

import (
	"fmt"
	"time"

	"demuxabr/internal/abr/dashjs"
	"demuxabr/internal/abr/exoplayer"
	"demuxabr/internal/abr/shaka"
	"demuxabr/internal/core"
	"demuxabr/internal/media"
	"demuxabr/internal/timeline"
	"demuxabr/internal/trace"
)

// Fig2Result captures an ExoPlayer-DASH experiment of Fig. 2: the selected
// combination and the better combination the predetermination excluded.
type Fig2Result struct {
	Outcome Outcome
	// Predetermined is ExoPlayer's combination subset for the ladder.
	Predetermined []media.Combo
	// Dominant is the combination selected for most of the session.
	Dominant media.Combo
	// BetterExcluded is the combination the paper argues is preferable
	// (V3+B3 for Fig 2(a), V3+C1 for Fig 2(b)).
	BetterExcluded media.Combo
	// BetterFits reports that BetterExcluded's declared bandwidth is within
	// the link capacity — i.e. it was feasible but unreachable.
	BetterFits bool
	// BetterPredetermined reports whether BetterExcluded is reachable at
	// all (it must be false: that is the finding).
	BetterPredetermined bool
}

func fig2(content *media.Content, betterVideo, betterAudio string) (Fig2Result, error) {
	video, audio, err := core.RoundTripMPD(content)
	if err != nil {
		return Fig2Result{}, err
	}
	model := exoplayer.NewDASH(video, audio)
	out, err := playToEnd(core.Spec{Content: content, Profile: trace.Fig2Bandwidth(), Model: model})
	if err != nil {
		return Fig2Result{}, err
	}
	// Resolve the "better" combination against the parsed ladders.
	better := media.Combo{Video: video.ByID(betterVideo), Audio: audio.ByID(betterAudio)}
	if better.Video == nil || better.Audio == nil {
		return Fig2Result{}, fmt.Errorf("experiments: better combo %s+%s not in ladders", betterVideo, betterAudio)
	}
	r := Fig2Result{
		Outcome:        out,
		Predetermined:  model.Combos(),
		Dominant:       DominantCombo(out.Result),
		BetterExcluded: better,
		BetterFits:     better.DeclaredBitrate() <= trace.Fig2Bandwidth().RateAt(0),
	}
	for _, cb := range r.Predetermined {
		if cb.String() == better.String() {
			r.BetterPredetermined = true
		}
	}
	return r, nil
}

// Fig2a runs the first Fig. 2 experiment: Table 1 video with the low-rate B
// audio ladder at a fixed 900 Kbps. ExoPlayer settles on V3+B2 although
// V3+B3 (higher audio quality, 601 Kbps declared) fits the link.
func Fig2a() (Fig2Result, error) {
	return fig2(media.DramaShowLowAudio(), "V3", "B3")
}

// Fig2b runs the second Fig. 2 experiment: the high-rate C audio ladder.
// ExoPlayer settles on V2+C2 (very low video + high audio) although V3+C1
// (669 Kbps declared) fits.
func Fig2b() (Fig2Result, error) {
	return fig2(media.DramaShowHighAudio(), "V3", "C1")
}

// Fig3Result captures the ExoPlayer-HLS experiment of Fig. 3: fixed audio,
// off-manifest selections, stalls.
type Fig3Result struct {
	Outcome Outcome
	// FixedAudio is the rendition ExoPlayer pinned (the first listed).
	FixedAudio string
	// AudioTrackChanges counts audio switches (must be 0: no adaptation).
	AudioTrackChanges int
	// OffManifestChunks counts chunk positions streamed as combinations
	// outside H_sub.
	OffManifestChunks int
}

// Fig3 runs the first ExoPlayer HLS experiment: manifest H_sub with A3
// listed first, over the time-varying average-600 Kbps link. The audio
// stays pinned at A3, stalls accumulate, and selected pairs leave the
// manifest's subset.
func Fig3() (Fig3Result, error) {
	return Fig3Traced(nil)
}

// Fig3Traced is Fig3 with a flight recorder attached — the timeline the
// docs' stall-diagnosis walkthrough is drawn from.
func Fig3Traced(rec *timeline.Recorder) (Fig3Result, error) {
	content := media.DramaShow()
	order := []*media.Track{content.AudioTracks[2], content.AudioTracks[1], content.AudioTracks[0]}
	return exoHLS(content, order, trace.Fig3VaryingAvg600(), rec)
}

// ExoHLSLowFirst runs the second ExoPlayer HLS experiment (§3.2, figures
// omitted in the paper): A1 listed first and a 5 Mbps link — the player
// streams the lowest-quality audio for the whole session despite the
// ample bandwidth.
func ExoHLSLowFirst() (Fig3Result, error) {
	return exoHLS(media.DramaShow(), nil, trace.ExoHLSFixedBandwidth(), nil) // ladder order: A1 first
}

// exoHLS streams ExoPlayer-HLS over the H_sub master playlist with the
// audio renditions listed in order (nil: ladder order).
func exoHLS(content *media.Content, order []*media.Track, profile trace.Profile, rec *timeline.Recorder) (Fig3Result, error) {
	combos, parsedOrder, err := core.RoundTripMaster(content, media.HSub(content), order)
	if err != nil {
		return Fig3Result{}, err
	}
	model := exoplayer.NewHLS(combos, parsedOrder)
	out, err := playToEnd(core.Spec{
		Content:  content,
		Profile:  profile,
		Model:    model,
		Manifest: core.ManifestOptions{Combos: combos},
		Recorder: rec,
		// Fig. 3 plots the per-sample log.
		KeepTimeline: true,
	})
	if err != nil {
		return Fig3Result{}, err
	}
	return Fig3Result{
		Outcome:           out,
		FixedAudio:        model.FixedAudio().ID,
		AudioTrackChanges: out.Metrics.AudioSwitches,
		OffManifestChunks: out.Metrics.OffManifest,
	}, nil
}

// Fig4Result captures a Shaka experiment of Fig. 4.
type Fig4Result struct {
	Outcome Outcome
	// EstimateStart/EstimateEnd sample the bandwidth-estimate series.
	EstimateStart media.Bps
	EstimateEnd   media.Bps
	// AnyValidSample reports whether any interval passed the 16 KB filter.
	AnyValidSample bool
	// Dominant is the most-streamed combination.
	Dominant media.Combo
}

// Fig4a runs the first Shaka experiment: H_all over a constant 1 Mbps link.
// No throughput interval ever reaches 16 KB, so the 500 Kbps default sticks
// and V2+A2 streams throughout.
func Fig4a() (Fig4Result, error) {
	return runFig4(trace.Fig4aBandwidth())
}

// Fig4b runs the second Shaka experiment: the bimodal average-600 Kbps
// profile. Only high-phase intervals pass the filter, so the estimate
// swings from the 500 Kbps default (underestimation) to ~1.5 Mbps
// (overestimation), driving selections the link cannot sustain and heavy
// rebuffering.
func Fig4b() (Fig4Result, error) {
	return runFig4(trace.Fig4bBimodal600())
}

func runFig4(profile trace.Profile) (Fig4Result, error) {
	content := media.DramaShow()
	combos, _, err := core.RoundTripMaster(content, media.HAll(content), nil)
	if err != nil {
		return Fig4Result{}, err
	}
	model := shaka.NewHLS(combos)
	// The estimate series is read from the per-sample log.
	out, err := playToEnd(core.Spec{Content: content, Profile: profile, Model: model, Manifest: core.ManifestOptions{Combos: combos}, KeepTimeline: true})
	if err != nil {
		return Fig4Result{}, err
	}
	r := Fig4Result{
		Outcome:        out,
		AnyValidSample: model.HasValidSample(),
		Dominant:       DominantCombo(out.Result),
	}
	if n := len(out.Result.Timeline); n > 0 {
		r.EstimateStart = out.Result.Timeline[0].Estimate
		r.EstimateEnd = out.Result.Timeline[n-1].Estimate
	}
	return r, nil
}

// Fig5Result captures the dash.js experiment of Fig. 5.
type Fig5Result struct {
	Outcome Outcome
	// Combos are the distinct audio/video pairings streamed.
	Combos []media.Combo
	// UndesirablePairings flags combinations pairing the lowest-rung videos
	// (V1/V2) with the highest audio (the §3.4 "clearly undesirable" case).
	UndesirablePairings []media.Combo
	// MaxImbalance is the Fig. 5(b) buffer divergence.
	MaxImbalance time.Duration
}

// Fig5 runs the dash.js experiment: DASH manifest, fixed 700 Kbps link,
// fully independent per-type DYNAMIC adaptation. Selections fluctuate
// across pairings including the undesirable V2+A3, and the audio and video
// buffers diverge.
func Fig5() (Fig5Result, error) {
	content := media.DramaShow()
	video, audio, err := core.RoundTripMPD(content)
	if err != nil {
		return Fig5Result{}, err
	}
	model := dashjs.New(video, audio)
	// Fig. 5 plots the per-sample log.
	out, err := playToEnd(core.Spec{Content: content, Profile: trace.Fig5Bandwidth(), Model: model, KeepTimeline: true})
	if err != nil {
		return Fig5Result{}, err
	}
	r := Fig5Result{
		Outcome:      out,
		Combos:       out.Result.CombosSelected(),
		MaxImbalance: out.Result.MaxBufferImbalance(),
	}
	topAudio := audio[len(audio)-1]
	for _, cb := range r.Combos {
		if cb.Audio.ID == topAudio.ID && video.Index(cb.Video) <= 1 {
			r.UndesirablePairings = append(r.UndesirablePairings, cb)
		}
	}
	return r, nil
}
