package experiments

import (
	"bytes"
	"fmt"

	"demuxabr/internal/abr"
	"demuxabr/internal/abr/exoplayer"
	"demuxabr/internal/abr/jointabr"
	"demuxabr/internal/core"
	"demuxabr/internal/manifest/hls"
	"demuxabr/internal/media"
	"demuxabr/internal/netsim"
	"demuxabr/internal/player"
	"demuxabr/internal/trace"
)

// This file holds the experiments that validate the paper's §4 best
// practices beyond the head-to-head comparison: the media-playlist repair
// of the ExoPlayer HLS degradation, and the different-servers (split-path)
// scenario that motivates per-track bandwidth declarations.

// RepairResult contrasts the broken ExoPlayer HLS behaviour of Fig. 3 with
// the §4.1 client-side fix (download second-level media playlists, recover
// per-track bitrates, adapt over the listed variants).
type RepairResult struct {
	Broken   Outcome
	Repaired Outcome
	// RecoveredBitrateErr is the largest relative error between the
	// bitrates recovered from the media playlists and the true track
	// averages — it must be small for the repair to be meaningful.
	RecoveredBitrateErr float64
}

// RecoveredLadders rebuilds track ladders the way a §4.1-compliant HLS
// client does: generate (here) and parse each track's media playlist and
// derive per-track peak/average bitrates from the byte ranges.
func RecoveredLadders(c *media.Content) (video, audio media.Ladder, maxRelErr float64, err error) {
	recover := func(tr *media.Track) (*media.Track, float64, error) {
		var buf bytes.Buffer
		if err := hls.GenerateMedia(c, tr, hls.SingleFile, false).Encode(&buf); err != nil {
			return nil, 0, err
		}
		pl, err := hls.ParseMedia(&buf)
		if err != nil {
			return nil, 0, err
		}
		peak, avg, err := hls.TrackBitrate(pl)
		if err != nil {
			return nil, 0, err
		}
		relErr := float64(avg-tr.AvgBitrate) / float64(tr.AvgBitrate)
		if relErr < 0 {
			relErr = -relErr
		}
		return &media.Track{
			ID:              tr.ID,
			Type:            tr.Type,
			AvgBitrate:      avg,
			PeakBitrate:     peak,
			DeclaredBitrate: peak,
			Resolution:      tr.Resolution,
			Channels:        tr.Channels,
			SampleRateHz:    tr.SampleRateHz,
		}, relErr, nil
	}
	for _, tr := range c.VideoTracks {
		rec, e, err := recover(tr)
		if err != nil {
			return nil, nil, 0, err
		}
		if e > maxRelErr {
			maxRelErr = e
		}
		video = append(video, rec)
	}
	for _, tr := range c.AudioTracks {
		rec, e, err := recover(tr)
		if err != nil {
			return nil, nil, 0, err
		}
		if e > maxRelErr {
			maxRelErr = e
		}
		audio = append(audio, rec)
	}
	return video, audio, maxRelErr, nil
}

// Fig3Repaired reruns the Fig. 3 conditions with the §4.1 repair applied:
// the client reads the second-level media playlists before adapting. Audio
// adaptation returns, selections stay on the manifest, and rebuffering
// drops versus the broken player.
func Fig3Repaired() (RepairResult, error) {
	content := media.DramaShow()
	order := []*media.Track{content.AudioTracks[2], content.AudioTracks[1], content.AudioTracks[0]}
	combos, parsedOrder, err := core.RoundTripMaster(content, media.HSub(content), order)
	if err != nil {
		return RepairResult{}, err
	}
	fig3 := core.Spec{Content: content, Profile: trace.Fig3VaryingAvg600(), Manifest: core.ManifestOptions{Combos: combos}}
	fig3.Model = exoplayer.NewHLS(combos, parsedOrder)
	broken, err := playToEnd(fig3)
	if err != nil {
		return RepairResult{}, err
	}
	video, audio, relErr, err := RecoveredLadders(content)
	if err != nil {
		return RepairResult{}, err
	}
	// Re-key the master's variants onto the recovered tracks.
	variants := make([]media.Combo, len(combos))
	for i, cb := range combos {
		variants[i] = media.Combo{Video: video.ByID(cb.Video.ID), Audio: audio.ByID(cb.Audio.ID)}
		if variants[i].Video == nil || variants[i].Audio == nil {
			return RepairResult{}, fmt.Errorf("experiments: variant %s not recoverable", cb)
		}
	}
	fig3.Model = exoplayer.NewHLSRepaired(variants)
	repaired, err := playToEnd(fig3)
	if err != nil {
		return RepairResult{}, err
	}
	return RepairResult{Broken: broken, Repaired: repaired, RecoveredBitrateErr: relErr}, nil
}

// SplitPathResult contrasts aggregate-budget selection with path-aware
// selection when audio and video are served over different bottlenecks.
type SplitPathResult struct {
	// VideoPathKbps / AudioPathKbps are the two links' rates.
	VideoPathKbps float64
	AudioPathKbps float64
	Shared        Outcome // single aggregate bandwidth budget
	PathAware     Outcome // per-component path budgets
}

// SplitPath runs the §4.1 different-servers scenario: a fast video path
// (4 Mbps) and a slow audio path (250 Kbps — enough for A2, not A3).
//
// A player that reasons about one aggregate bandwidth is wrong in both
// directions here: its active-period meter is dominated by the slow audio
// transfers, so the estimate collapses toward the audio path's rate and
// the 4 Mbps video path is starved at the lowest rungs. The path-aware
// player budgets each component against its own path's estimate and
// reaches the quality both paths can actually sustain. This is why §4.1
// calls per-track bandwidth declarations "particularly important when
// audio and video are fetched over different network paths".
func SplitPath() (SplitPathResult, error) {
	content := media.DramaShow()
	combos, _, err := core.RoundTripMaster(content, media.HSub(content), nil)
	if err != nil {
		return SplitPathResult{}, err
	}
	r := SplitPathResult{VideoPathKbps: 4000, AudioPathKbps: 250}
	run := func(model abr.Algorithm) (Outcome, error) {
		eng := netsim.NewEngine()
		videoLink := netsim.NewLink(eng, trace.Fixed(media.Kbps(r.VideoPathKbps)))
		audioLink := netsim.NewLink(eng, trace.Fixed(media.Kbps(r.AudioPathKbps)))
		res, err := player.RunSplit(videoLink, audioLink, player.Config{Content: content, Model: model})
		if err != nil {
			return Outcome{}, err
		}
		return scoreFinished(res, model.Name(), content, combos)
	}
	allowed := abr.NewAllowed(combos)
	if r.Shared, err = run(jointabr.New(allowed)); err != nil {
		return SplitPathResult{}, err
	}
	if r.PathAware, err = run(jointabr.New(allowed, jointabr.WithPathAwareness())); err != nil {
		return SplitPathResult{}, err
	}
	return r, nil
}

// SyncGranularityPoint is one cell of the §4.2 synchronization-granularity
// sweep: the best-practice player with a given audio/video skew bound.
type SyncGranularityPoint struct {
	// Window is the allowed lead in chunk positions (0 = strict pairing).
	Window  int
	Outcome Outcome
}

// SyncGranularity quantifies §4.2's "synchronize ... at the chunk level or
// in terms of a small number of chunks": the best-practice player runs on
// the Fig. 3 link with increasing skew bounds. Imbalance grows with the
// window while QoE stays flat for small windows — fine-granularity sync is
// cheap.
func SyncGranularity(windows []int) ([]SyncGranularityPoint, error) {
	content := media.DramaShow()
	combos, _, err := core.RoundTripMaster(content, media.HSub(content), nil)
	if err != nil {
		return nil, err
	}
	allowed := abr.NewAllowed(combos)
	var out []SyncGranularityPoint
	for _, w := range windows {
		eng := netsim.NewEngine()
		link := netsim.NewLink(eng, trace.Fig3VaryingAvg600())
		model := jointabr.New(allowed)
		res, err := player.Run(link, player.Config{Content: content, Model: model, SyncWindow: w})
		if err != nil {
			return nil, err
		}
		o, err := scoreFinished(res, model.Name(), content, combos)
		if err != nil {
			return nil, fmt.Errorf("sync window %d: %w", w, err)
		}
		out = append(out, SyncGranularityPoint{Window: w, Outcome: o})
	}
	return out, nil
}
