package jointabr

import (
	"math"

	"demuxabr/internal/abr"
	"demuxabr/internal/abr/estimator"
	"demuxabr/internal/media"
)

// MPC is a model-predictive joint audio/video adapter in the style of
// Yin et al. [25 in the paper], lifted to the server-allowed combination
// list: at every chunk position it searches combination sequences over a
// lookahead horizon, simulates the buffer trajectory under the current
// bandwidth estimate, and commits the first step of the best sequence.
// The search is an exact branch and bound: it returns what enumerating
// every sequence would, while visiting a small fraction of them.
//
// The objective mirrors the QoE model: log-bitrate utility, minus a switch
// penalty on utility changes (both components move together in a
// combination switch), minus a heavy penalty on predicted rebuffering.
// Like the other players in this package it observes both streams through
// one shared meter and relies on chunk-synced scheduling.
type MPC struct {
	// Horizon is the lookahead depth in chunks (default 5).
	Horizon int
	// SwitchPenalty and RebufferPenalty weigh the objective (defaults 2
	// and 8 per second).
	SwitchPenalty   float64
	RebufferPenalty float64
	// DrainPenalty charges combinations whose predicted download time
	// exceeds the chunk duration (net buffer drain) per second of drain —
	// a sustainability bias that keeps the finite lookahead from riding an
	// unsustainable rung until the buffer collapses and oscillating.
	// Default 1.
	DrainPenalty float64

	allowed   []media.Combo
	utilities []float64
	meter
	lastIdx int

	// bound[d*n+p] is the best d-step sum of utility minus switch penalty
	// after combination p, for n allowed combinations and d < boundHorizon.
	// Rebuffer and drain penalties are non-negative, so it bounds the
	// objective of every d-step continuation from above. It depends only on
	// the utilities and on SwitchPenalty, whose bits are boundSwitch. NewMPC
	// builds it, so copies of a new model share it; no model writes it.
	bound        []float64
	boundHorizon int
	boundSwitch  uint64
	// prune is whether the bound holds for the current search: it does not
	// when a rebuffer or drain penalty is negative.
	prune bool
}

// NewMPC creates the adapter over the allowed combinations, whose list and
// utilities the model shares and never writes, with the bound table for
// the horizon and the default SwitchPenalty built.
func NewMPC(allowed *abr.Allowed, horizon int) *MPC {
	if horizon <= 0 {
		horizon = 5
	}
	m := &MPC{
		Horizon:         horizon,
		SwitchPenalty:   2,
		RebufferPenalty: 8,
		DrainPenalty:    1,
		allowed:         allowed.Combos(),
		utilities:       allowed.Utilities(),
		meter:           estimator.NewGlobalMeter(),
		lastIdx:         -1,
	}
	m.refreshBound()
	return m
}

// Name implements abr.Algorithm.
func (m *MPC) Name() string { return "mpc-joint" }

// Allowed exposes the combination list.
func (m *MPC) Allowed() []media.Combo { return m.allowed }

// BandwidthEstimate implements abr.BandwidthReporter.
func (m *MPC) BandwidthEstimate() (media.Bps, bool) { return m.meter.Estimate() }

// SelectCombo implements abr.JointAlgorithm.
func (m *MPC) SelectCombo(st abr.State) media.Combo {
	est, ok := m.meter.Estimate()
	if !ok || est <= 0 {
		m.lastIdx = 0
		return m.allowed[0]
	}
	chunkSecs := st.ChunkDuration.Seconds()
	if chunkSecs <= 0 {
		chunkSecs = 5
	}
	bestIdx, _ := m.plan(st.MinBuffer().Seconds(), m.lastIdx, float64(est), chunkSecs)
	m.lastIdx = bestIdx
	return m.allowed[bestIdx]
}

// plan returns the best first step over the full horizon from the given
// buffer level and previous combination, with the objective value of the
// best sequence that starts with it.
func (m *MPC) plan(buffer float64, prevIdx int, est, chunkSecs float64) (int, float64) {
	m.refreshBound()
	return m.search(buffer, prevIdx, m.Horizon, est, chunkSecs)
}

// refreshBound builds the bound table anew when Horizon or SwitchPenalty
// changed since it was built, and decides whether the search may prune.
// It never writes into the table it replaces, which copies of the model
// may share.
func (m *MPC) refreshBound() {
	m.prune = m.RebufferPenalty >= 0 && m.DrainPenalty >= 0
	h := max(m.Horizon, 1)
	switchBits := math.Float64bits(m.SwitchPenalty)
	if h == m.boundHorizon && switchBits == m.boundSwitch {
		return
	}
	n := len(m.allowed)
	m.bound = make([]float64, h*n) // row 0: nothing follows, bound 0
	for d := 1; d < h; d++ {
		next, row := m.bound[(d-1)*n:d*n], m.bound[d*n:(d+1)*n]
		for p := range row {
			best := math.Inf(-1)
			for i, u := range m.utilities {
				// search's step value and future sum with the rebuffer and
				// drain penalties left out, in the same operation order:
				// rounding is monotone, so the bound stays an upper bound.
				best = max(best, u-m.SwitchPenalty*math.Abs(u-m.utilities[p])+next[i])
			}
			row[p] = best
		}
	}
	m.boundHorizon, m.boundSwitch = h, switchBits
}

// search returns the best first step over sequences of the given depth and
// its objective value, exactly as enumerating every sequence would, ties
// going to the lowest index. It visits combinations from the richest down
// and skips one whose step value plus the bound on its continuation falls
// short of the best value so far by more than a rounding margin: such a
// combination could not have won.
func (m *MPC) search(buffer float64, prevIdx, depth int, est, chunkSecs float64) (int, float64) {
	n := len(m.allowed)
	bestIdx, bestVal := 0, math.Inf(-1)
	for i := n - 1; i >= 0; i-- {
		downloadSecs := float64(m.allowed[i].DeclaredBitrate()) * chunkSecs / est
		b := buffer - downloadSecs
		rebuffer := 0.0
		if b < 0 {
			rebuffer = -b
			b = 0
		}
		b += chunkSecs
		val := m.utilities[i] - m.RebufferPenalty*rebuffer
		if drain := downloadSecs - chunkSecs; drain > 0 {
			// Sustainability matters in proportion to how close the
			// projected buffer is to empty: with a deep buffer a transient
			// drain is exactly what the buffer is for.
			const comfort = 20.0 // seconds
			urgency := (comfort - b) / comfort
			if urgency > 0 {
				val -= m.DrainPenalty * drain * urgency
			}
		}
		if prevIdx >= 0 {
			val -= m.SwitchPenalty * math.Abs(m.utilities[i]-m.utilities[prevIdx])
		}
		if depth > 1 {
			slack := 1e-9 * math.Max(1, math.Abs(bestVal))
			if m.prune && val+m.bound[(depth-1)*n+i]+slack < bestVal {
				continue
			}
			_, future := m.search(b, i, depth-1, est, chunkSecs)
			val += future
		}
		if val >= bestVal {
			bestVal = val
			bestIdx = i
		}
	}
	if math.IsInf(bestVal, -1) {
		// Enumeration keeps index 0 when no value beats -Inf.
		bestIdx = 0
	}
	return bestIdx, bestVal
}

// compile-time interface checks for all adapters in this package.
var (
	_ abr.JointAlgorithm    = (*Player)(nil)
	_ abr.JointAlgorithm    = (*BolaJoint)(nil)
	_ abr.JointAlgorithm    = (*MPC)(nil)
	_ abr.PerTypeAlgorithm  = (*Independent)(nil)
	_ abr.Abandoner         = (*Player)(nil)
	_ abr.BandwidthReporter = (*Player)(nil)
	_ abr.BandwidthReporter = (*BolaJoint)(nil)
	_ abr.BandwidthReporter = (*MPC)(nil)
)
