package jointabr

import (
	"time"

	"demuxabr/internal/abr"
	"demuxabr/internal/abr/estimator"
	"demuxabr/internal/media"
)

// ChunkSizer reports the size in bytes of a track's chunk at a position.
// A §4.1-compliant client has this information before playback: single-file
// HLS packaging exposes every chunk's byte range in the media playlists
// (and EXT-X-BITRATE gives per-chunk bitrates otherwise).
type ChunkSizer func(tr *media.Track, idx int) int64

// VBRAware is a joint adapter that decides on actual upcoming chunk sizes
// instead of declared average bitrates — the pitfall the paper cites from
// Qin et al. [21]: VBR-encoded tracks have chunks far above their declared
// average, so an average-based decision overcommits exactly on the
// expensive scenes. VBRAware budgets the real next-chunk bytes of each
// allowed combination against the estimated bandwidth, with the same
// damping as the best-practice player.
type VBRAware struct {
	// SafetyFactor and damping mirror the best-practice defaults.
	SafetyFactor     float64
	UpSwitchBuffer   time.Duration
	DownSwitchBuffer time.Duration

	allowed []media.Combo
	sizes   ChunkSizer
	meter
	current media.Combo
}

// NewVBRAware creates the adapter over the allowed combinations, which it
// shares and never writes. sizes must cover every track in allowed.
func NewVBRAware(allowed *abr.Allowed, sizes ChunkSizer) *VBRAware {
	if sizes == nil {
		panic("jointabr: nil chunk sizer")
	}
	return &VBRAware{
		SafetyFactor:     DefaultSafetyFactor,
		UpSwitchBuffer:   DefaultUpSwitchBuffer,
		DownSwitchBuffer: DefaultDownSwitchBuffer,
		allowed:          allowed.Combos(),
		sizes:            sizes,
		meter:            estimator.NewGlobalMeter(),
	}
}

// Name implements abr.Algorithm.
func (v *VBRAware) Name() string { return "bestpractice-vbr" }

// Allowed exposes the combination list.
func (v *VBRAware) Allowed() []media.Combo { return v.allowed }

// BandwidthEstimate implements abr.BandwidthReporter.
func (v *VBRAware) BandwidthEstimate() (media.Bps, bool) { return v.meter.Estimate() }

// SelectCombo implements abr.JointAlgorithm: the richest allowed
// combination whose actual chunk bytes at st.ChunkIndex download within
// SafetyFactor of a chunk duration at the estimated bandwidth.
func (v *VBRAware) SelectCombo(st abr.State) media.Combo {
	est, ok := v.meter.Estimate()
	if !ok {
		v.current = v.allowed[0]
		return v.current
	}
	chunkSecs := st.ChunkDuration.Seconds()
	if chunkSecs <= 0 {
		chunkSecs = 5
	}
	budgetBytes := float64(est) * v.SafetyFactor * chunkSecs / 8
	ideal := v.allowed[0]
	for _, cb := range v.allowed {
		size := float64(v.sizes(cb.Video, st.ChunkIndex) + v.sizes(cb.Audio, st.ChunkIndex))
		if size <= budgetBytes {
			ideal = cb
		}
	}
	if v.current.Video == nil {
		v.current = ideal
		return v.current
	}
	switch {
	case ideal.DeclaredBitrate() > v.current.DeclaredBitrate():
		if st.MinBuffer() >= v.UpSwitchBuffer {
			v.current = ideal
		}
	case ideal.DeclaredBitrate() < v.current.DeclaredBitrate():
		// The per-chunk budget already reflects the actual bytes; a lower
		// ideal means this specific chunk is expensive — ride the buffer
		// only when it is deep.
		if st.MinBuffer() < v.DownSwitchBuffer {
			v.current = ideal
		}
	}
	return v.current
}
