// Package dashjs models the dash.js v2.9 reference player's adaptation as
// described in §3.4 of the paper.
//
// dash.js runs the DYNAMIC strategy — a switchover between the rate-based
// THROUGHPUT rule and the buffer-based BOLA rule — separately and
// independently for audio and for video. Each type has its own bandwidth
// estimator fed only by its own downloads, and its own free-running
// download loop (run this model with the player engine's independent
// scheduler, which it gets automatically by implementing
// abr.PerTypeAlgorithm). The two §3.4 pathologies follow: undesirable
// audio/video pairings (neither loop knows about the other) and unbalanced
// buffers (no cross-type synchronization).
package dashjs

import (
	"math"
	"time"

	"demuxabr/internal/abr"
	"demuxabr/internal/abr/estimator"
	"demuxabr/internal/media"
)

// Defaults mirroring dash.js v2.9.
const (
	// DefaultSafetyFactor is the THROUGHPUT rule's bandwidthSafetyFactor.
	DefaultSafetyFactor = 0.9
	// DefaultBolaEnterBuffer: DYNAMIC hands control to BOLA above this
	// buffer level (when BOLA agrees or selects higher).
	DefaultBolaEnterBuffer = 12 * time.Second
	// DefaultBolaExitBuffer: DYNAMIC reverts to THROUGHPUT below this
	// buffer level (when BOLA selects lower).
	DefaultBolaExitBuffer = 6 * time.Second
)

// Bola is the BOLA-E utility maximizer as parameterized by dash.js's
// BolaRule: utilities are shifted log bitrate ratios, and the control
// parameters Vp and gp are derived from a minimum buffer of 10 s plus 2 s
// per ladder rung.
type Bola struct {
	ladder    media.Ladder
	utilities []float64
	vp        float64 // seconds
	gp        float64
}

// bolaMinimumBuffer and bolaBufferPerLevel are dash.js's BolaRule constants.
const (
	bolaMinimumBuffer  = 10.0 // seconds
	bolaBufferPerLevel = 2.0  // seconds per ladder rung
)

// NewBola derives BOLA parameters for a ladder and a stable buffer target.
func NewBola(ladder media.Ladder, stableBuffer time.Duration) *Bola {
	b := &Bola{ladder: ladder}
	b.utilities = make([]float64, len(ladder))
	l0 := math.Log(float64(ladder[0].DeclaredBitrate))
	for i, t := range ladder {
		b.utilities[i] = math.Log(float64(t.DeclaredBitrate)) - l0 + 1
	}
	bufferTime := math.Max(stableBuffer.Seconds(), bolaMinimumBuffer+bolaBufferPerLevel*float64(len(ladder)))
	top := b.utilities[len(b.utilities)-1]
	b.gp = (top - 1) / (bufferTime/bolaMinimumBuffer - 1)
	b.vp = bolaMinimumBuffer / b.gp
	return b
}

// Select returns the track maximizing the BOLA objective
// (Vp·(u_i+gp) − buffer)/bitrate_i at the given buffer level.
func (b *Bola) Select(buffer time.Duration) *media.Track {
	bestIdx, bestScore := 0, math.Inf(-1)
	for i, t := range b.ladder {
		score := (b.vp*(b.utilities[i]+b.gp) - buffer.Seconds()) / float64(t.DeclaredBitrate)
		if score > bestScore {
			bestScore = score
			bestIdx = i
		}
	}
	return b.ladder[bestIdx]
}

// perTypeState is the DYNAMIC machinery of one media type. The Player
// holds it by value, so a copy of a new Player is a new Player; the copies
// share the ladder and the Bola, which nothing writes.
type perTypeState struct {
	ladder    media.Ladder
	est       estimator.SlidingMean
	bola      *Bola
	usingBola bool
}

// Player is the dash.js model: fully independent per-type DYNAMIC.
type Player struct {
	// SafetyFactor is the THROUGHPUT rule's headroom. Defaults to 0.9.
	SafetyFactor float64
	// BolaEnterBuffer/BolaExitBuffer are the DYNAMIC switchover levels.
	BolaEnterBuffer time.Duration
	BolaExitBuffer  time.Duration

	state [2]perTypeState
}

// New builds the model for the two ladders.
func New(video, audio media.Ladder) *Player {
	mk := func(l media.Ladder) perTypeState {
		return perTypeState{
			ladder: l,
			est:    estimator.NewSlidingMean(),
			bola:   NewBola(l, DefaultBolaEnterBuffer),
		}
	}
	p := &Player{
		SafetyFactor:    DefaultSafetyFactor,
		BolaEnterBuffer: DefaultBolaEnterBuffer,
		BolaExitBuffer:  DefaultBolaExitBuffer,
	}
	p.state[media.Video] = mk(video)
	p.state[media.Audio] = mk(audio)
	return p
}

// Name implements abr.Algorithm.
func (p *Player) Name() string { return "dashjs" }

// OnStart implements abr.Observer.
func (p *Player) OnStart(abr.TransferInfo) {}

// OnProgress implements abr.Observer.
func (p *Player) OnProgress(abr.TransferInfo) {}

// OnComplete implements abr.Observer: each type's estimator sees only its
// own segment downloads — the per-type estimation of §3.4.
func (p *Player) OnComplete(ti abr.TransferInfo) {
	if tput := ti.Throughput(); tput > 0 {
		p.state[ti.Type].est.Add(tput)
	}
}

// BandwidthEstimate implements abr.BandwidthReporter with the video-side
// estimate (the quantity Fig. 5 tracks).
func (p *Player) BandwidthEstimate() (media.Bps, bool) {
	return p.state[media.Video].est.Estimate()
}

// EstimateOf exposes the per-type estimate.
func (p *Player) EstimateOf(t media.Type) (media.Bps, bool) { return p.state[t].est.Estimate() }

// UsingBola reports which rule DYNAMIC is currently applying for a type.
func (p *Player) UsingBola(t media.Type) bool { return p.state[t].usingBola }

// Abandon implements abr.Abandoner, modelling dash.js's
// AbandonRequestsRule: once a download has run long enough to measure and
// its projected completion overshoots the buffer it protects, re-request
// the chunk at the quality the measured rate supports. Each position is
// abandoned at most once per type.
func (p *Player) Abandon(dp abr.DownloadProgress) *media.Track {
	if dp.Attempt > 0 || dp.Elapsed < 500*time.Millisecond {
		return nil
	}
	if dp.RemainingTime() <= dp.Buffer {
		return nil
	}
	s := &p.state[dp.Type]
	budget := media.Bps(dp.Rate() * p.SafetyFactor)
	repl := abr.HighestTrackAtMost(s.ladder, budget)
	if repl == dp.Track || repl.DeclaredBitrate >= dp.Track.DeclaredBitrate {
		return nil
	}
	return repl
}

// throughputRule picks the highest track with declared bitrate within the
// safety-scaled estimate; lowest track before any estimate exists.
func (p *Player) throughputRule(s *perTypeState) *media.Track {
	est, ok := s.est.Estimate()
	if !ok {
		return s.ladder[0]
	}
	return abr.HighestTrackAtMost(s.ladder, media.Bps(float64(est)*p.SafetyFactor))
}

// SelectTrack implements abr.PerTypeAlgorithm with the DYNAMIC switchover
// the paper describes: start on THROUGHPUT; hand over to BOLA when the
// buffer exceeds BolaEnterBuffer and BOLA selects at least as high; revert
// when the buffer falls below BolaExitBuffer and BOLA selects lower.
func (p *Player) SelectTrack(t media.Type, st abr.State) *media.Track {
	s := &p.state[t]
	buffer := st.Buffer(t)
	tput := p.throughputRule(s)
	bola := s.bola.Select(buffer)
	if s.usingBola {
		if buffer < p.BolaExitBuffer && bola.DeclaredBitrate < tput.DeclaredBitrate {
			s.usingBola = false
		}
	} else {
		if buffer > p.BolaEnterBuffer && bola.DeclaredBitrate >= tput.DeclaredBitrate {
			s.usingBola = true
		}
	}
	if s.usingBola {
		return bola
	}
	return tput
}
