// Package shaka models Shaka Player v2.5's audio/video adaptation as
// described in §3.3 of the paper.
//
// Shaka estimates bandwidth from δ = 0.125 s interval samples of each
// individual transfer, discards intervals that moved less than 16 KB, feeds
// the rest into fast/slow EWMAs, and reports a 500 Kbps default until a
// sample is accepted (estimator.ShakaEstimator). Selection is purely
// rate-based over the variant list — the manifest's combinations for HLS,
// or the full cross product it synthesizes for DASH — with no switch
// damping, which is why selections oscillate when many combinations have
// nearby bandwidth requirements.
package shaka

import (
	"demuxabr/internal/abr"
	"demuxabr/internal/abr/estimator"
	"demuxabr/internal/media"
)

// DefaultDowngradeTarget is Shaka's bandwidthDowngradeTarget: a variant is
// selectable while its BANDWIDTH is at most 95% of the estimate.
const DefaultDowngradeTarget = 0.95

// Player is the Shaka model. The player delivers progress samples every
// estimator.ShakaSampleInterval, so the interval sampler sees transfers the
// way Shaka's does.
type Player struct {
	// DowngradeTarget scales the estimate before comparing against variant
	// bandwidths. Defaults to DefaultDowngradeTarget.
	DowngradeTarget float64

	// est is held by value, so a copy of a new Player is a new Player; the
	// copies share combos, which no Player writes.
	est    estimator.ShakaEstimator
	combos []media.Combo // selectable variants, sorted by peak bitrate
}

// NewHLS builds the model from an HLS master playlist's variant list.
func NewHLS(variants []media.Combo) *Player {
	return &Player{
		DowngradeTarget: DefaultDowngradeTarget,
		est:             *estimator.NewShakaEstimator(),
		combos:          sortedByPeak(variants),
	}
}

// NewDASH builds the model from DASH ladders: Shaka creates all
// combinations of video and audio tracks when parsing a DASH manifest
// (§3.3), so the result matches HLS with the full H_all variant list.
func NewDASH(video, audio media.Ladder) *Player {
	return NewHLS(media.AllCombos(video, audio))
}

func sortedByPeak(in []media.Combo) []media.Combo {
	out := make([]media.Combo, len(in))
	copy(out, in)
	for i := 1; i < len(out); i++ { // insertion sort keeps ties stable
		for j := i; j > 0 && out[j-1].PeakBitrate() > out[j].PeakBitrate(); j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// Name implements abr.Algorithm.
func (p *Player) Name() string { return "shaka" }

// Combos exposes the selectable variant list.
func (p *Player) Combos() []media.Combo { return p.combos }

// OnStart implements abr.Observer.
func (p *Player) OnStart(abr.TransferInfo) {}

// OnProgress implements abr.Observer: every full δ interval of every
// transfer is offered to the estimator, which applies the 16 KB validity
// filter. Partial final intervals are discarded — Shaka's timer never
// produces them.
func (p *Player) OnProgress(ti abr.TransferInfo) {
	if ti.Duration != estimator.ShakaSampleInterval {
		return
	}
	p.est.Interval(ti.Bytes, ti.Duration)
}

// OnComplete implements abr.Observer (Shaka samples by interval, not by
// request).
func (p *Player) OnComplete(abr.TransferInfo) {}

// BandwidthEstimate implements abr.BandwidthReporter.
func (p *Player) BandwidthEstimate() (media.Bps, bool) { return p.est.Estimate() }

// HasValidSample reports whether any interval passed the 16 KB filter.
func (p *Player) HasValidSample() bool { return p.est.HasValidSample() }

// SelectCombo implements abr.JointAlgorithm: the highest-bandwidth variant
// whose aggregate peak bitrate fits within DowngradeTarget of the estimate
// — re-evaluated from scratch at every chunk, with no damping.
func (p *Player) SelectCombo(abr.State) media.Combo {
	est, _ := p.est.Estimate()
	budget := media.Bps(float64(est) * p.DowngradeTarget)
	return abr.HighestAtMost(p.combos, budget, media.Combo.PeakBitrate)
}
