package exoplayer

import (
	"demuxabr/internal/abr"
	"demuxabr/internal/abr/estimator"
	"demuxabr/internal/media"
)

// HLSRepaired is the §4.1 client-side fix for the HLS degradation: before
// making rate-adaptation decisions, the player downloads the second-level
// media playlists and recovers each track's bitrate (from EXT-X-BYTERANGE
// sizes or EXT-X-BITRATE tags — manifest/hls.TrackBitrate). With per-track
// bitrates in hand it adapts jointly over the variants the master playlist
// actually lists: audio adapts again, video bitrates are no longer
// overestimated, and every selection is a listed combination.
type HLSRepaired struct {
	// BandwidthFraction, InitialEstimate and the switch damping mirror the
	// ExoPlayer defaults.
	BandwidthFraction float64
	InitialEstimate   media.Bps
	Damping           hysteresis

	meter
	variants []media.Combo // listed variants sorted by true declared bitrate
	current  media.Combo
}

// NewHLSRepaired builds the repaired model from the master playlist's
// variants. The variants' tracks must carry their true declared bitrates —
// i.e. the ladders reconstructed from the media playlists, not the
// aggregate-only view of the top-level manifest.
func NewHLSRepaired(variants []media.Combo) *HLSRepaired {
	sorted := make([]media.Combo, len(variants))
	copy(sorted, variants)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j-1].DeclaredBitrate() > sorted[j].DeclaredBitrate(); j-- {
			sorted[j-1], sorted[j] = sorted[j], sorted[j-1]
		}
	}
	return &HLSRepaired{
		BandwidthFraction: DefaultBandwidthFraction,
		InitialEstimate:   DefaultInitialEstimate,
		Damping: hysteresis{
			minForIncrease: DefaultMinDurationForQualityIncrease,
			maxForDecrease: DefaultMaxDurationForQualityDecrease,
		},
		meter:    estimator.NewGlobalMeter(),
		variants: sorted,
	}
}

// Name implements abr.Algorithm.
func (h *HLSRepaired) Name() string { return "exoplayer-hls-repaired" }

// Variants exposes the selectable combination list.
func (h *HLSRepaired) Variants() []media.Combo { return h.variants }

// BandwidthEstimate implements abr.BandwidthReporter.
func (h *HLSRepaired) BandwidthEstimate() (media.Bps, bool) {
	if est, ok := h.meter.Estimate(); ok {
		return est, true
	}
	return h.InitialEstimate, true
}

// SelectCombo implements abr.JointAlgorithm: the ExoPlayer selection logic
// over the listed variants with true per-track bitrates.
func (h *HLSRepaired) SelectCombo(st abr.State) media.Combo {
	est, _ := h.BandwidthEstimate()
	budget := media.Bps(float64(est) * h.BandwidthFraction)
	ideal := abr.HighestAtMost(h.variants, budget, media.Combo.DeclaredBitrate)
	if h.current.Video == nil {
		h.current = ideal
		return h.current
	}
	if h.Damping.apply(h.current.DeclaredBitrate(), ideal.DeclaredBitrate(), st.MinBuffer()) {
		h.current = ideal
	}
	return h.current
}
