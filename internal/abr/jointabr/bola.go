package jointabr

import (
	"math"
	"time"

	"demuxabr/internal/abr"
	"demuxabr/internal/abr/estimator"
	"demuxabr/internal/media"
)

// BolaJoint is the rate-adaptation scheme the paper's §5 names as future
// work: a principled adapter "following the suggested practices" — here,
// BOLA's Lyapunov-utility objective lifted from single-track selection to
// the server-allowed audio/video combinations.
//
// Each allowed combination gets a utility proportional to the log of its
// aggregate declared bitrate; the selection maximizes
//
//	(Vp·(u_i + gp) − Q) / r_i
//
// where Q is the minimum of the audio and video buffer levels (the quantity
// whose underrun stalls playback in demuxed streaming). All four §4
// practices hold: audio adapts (combinations carry audio), only allowed
// combinations are considered, the decision is joint with a buffer signal
// shared across the two components, and the abr.JointAlgorithm interface
// gives chunk-synced scheduling.
type BolaJoint struct {
	// BufferTarget sizes the BOLA control parameters (default 20 s).
	BufferTarget time.Duration

	allowed []media.Combo
	// utilities[i] + 1 is combination i's BOLA utility: the log of its
	// declared bitrate relative to the lowest, shifted so the lowest
	// scores 1 (abr.Allowed's table, shared).
	utilities []float64
	vp        float64
	gp        float64

	// BOLA-O oscillation control: up-switches are capped at the highest
	// combination the measured throughput sustains, so the utility
	// objective cannot bounce across rungs faster than the link warrants.
	meter
	lastIdx int
}

// NewBolaJoint derives BOLA parameters over the allowed combinations, whose
// list and utilities the model shares and never writes.
func NewBolaJoint(allowed *abr.Allowed, bufferTarget time.Duration) *BolaJoint {
	b := new(BolaJoint)
	b.init(allowed, bufferTarget)
	return b
}

// init sets b to a new model's state: the one definition of it, for
// NewBolaJoint and for the DynamicJoint that holds a BolaJoint by value.
func (b *BolaJoint) init(allowed *abr.Allowed, bufferTarget time.Duration) {
	if bufferTarget <= 0 {
		bufferTarget = 20 * time.Second
	}
	*b = BolaJoint{
		BufferTarget: bufferTarget,
		allowed:      allowed.Combos(),
		utilities:    allowed.Utilities(),
		meter:        estimator.NewGlobalMeter(),
		lastIdx:      -1,
	}
	// The dash.js parameterization, over combinations: a minimum buffer of
	// 10 s plus headroom toward the target.
	const minimumBuffer = 10.0
	bufferSecs := math.Max(bufferTarget.Seconds(), minimumBuffer+2)
	// top is the BOLA utility of the richest combination. (u+1)-1 need
	// not round back to u, so top - 1 stays as the parameterization writes
	// it.
	top := b.utilities[len(b.utilities)-1] + 1
	b.gp = (top - 1) / (bufferSecs/minimumBuffer - 1)
	b.vp = minimumBuffer / b.gp
}

// Name implements abr.Algorithm.
func (b *BolaJoint) Name() string { return "bola-joint" }

// Allowed exposes the combination list.
func (b *BolaJoint) Allowed() []media.Combo { return b.allowed }

// BandwidthEstimate implements abr.BandwidthReporter.
func (b *BolaJoint) BandwidthEstimate() (media.Bps, bool) { return b.meter.Estimate() }

// SelectCombo implements abr.JointAlgorithm: the BOLA argmax with BOLA-O
// oscillation suppression on up-switches.
func (b *BolaJoint) SelectCombo(st abr.State) media.Combo {
	q := st.MinBuffer().Seconds()
	bestIdx, bestScore := 0, math.Inf(-1)
	for i, cb := range b.allowed {
		score := (b.vp*(b.utilities[i]+1+b.gp) - q) / float64(cb.DeclaredBitrate())
		if score > bestScore {
			bestScore = score
			bestIdx = i
		}
	}
	if b.lastIdx >= 0 && bestIdx > b.lastIdx {
		if est, ok := b.meter.Estimate(); ok {
			sustainable := 0
			for i, cb := range b.allowed {
				if cb.DeclaredBitrate() <= est {
					sustainable = i
				}
			}
			if sustainable < b.lastIdx {
				sustainable = b.lastIdx // never forces a down-switch
			}
			if bestIdx > sustainable {
				bestIdx = sustainable
			}
		}
	}
	b.lastIdx = bestIdx
	return b.allowed[bestIdx]
}
