package jointabr

import (
	"time"

	"demuxabr/internal/abr"
	"demuxabr/internal/media"
)

// DynamicJoint is dash.js's DYNAMIC strategy (§3.4: THROUGHPUT under low
// buffer, BOLA under high buffer) applied *jointly* over the allowed
// combinations with a shared bandwidth meter — the controlled counterpart
// to the dashjs model. Comparing the two isolates exactly what the paper's
// §3.4 finding costs: same rules, same thresholds, only the per-type
// independence removed.
type DynamicJoint struct {
	// SafetyFactor is the THROUGHPUT rule's headroom (dash.js 0.9).
	SafetyFactor float64
	// EnterBuffer/ExitBuffer are the DYNAMIC switchover levels (12 s/6 s).
	EnterBuffer time.Duration
	ExitBuffer  time.Duration

	// bola is the BOLA rule, and its allowed list and meter are the
	// THROUGHPUT rule's too: one meter, fed once per transfer event,
	// serves both rules.
	bola      BolaJoint
	usingBola bool
}

// NewDynamicJoint builds the adapter over the allowed combinations, which
// it shares and never writes.
func NewDynamicJoint(allowed *abr.Allowed) *DynamicJoint {
	d := &DynamicJoint{
		SafetyFactor: 0.9,
		EnterBuffer:  12 * time.Second,
		ExitBuffer:   6 * time.Second,
	}
	d.bola.init(allowed, 0)
	return d
}

// Name implements abr.Algorithm.
func (d *DynamicJoint) Name() string { return "dynamic-joint" }

// Allowed exposes the combination list.
func (d *DynamicJoint) Allowed() []media.Combo { return d.bola.allowed }

// UsingBola reports which rule is active.
func (d *DynamicJoint) UsingBola() bool { return d.usingBola }

// OnStart implements abr.Observer through the BOLA rule's meter.
func (d *DynamicJoint) OnStart(ti abr.TransferInfo) { d.bola.OnStart(ti) }

// OnProgress implements abr.Observer through the BOLA rule's meter.
func (d *DynamicJoint) OnProgress(ti abr.TransferInfo) { d.bola.OnProgress(ti) }

// OnComplete implements abr.Observer through the BOLA rule's meter.
func (d *DynamicJoint) OnComplete(ti abr.TransferInfo) { d.bola.OnComplete(ti) }

// BandwidthEstimate implements abr.BandwidthReporter.
func (d *DynamicJoint) BandwidthEstimate() (media.Bps, bool) { return d.bola.Estimate() }

// SelectCombo implements abr.JointAlgorithm with the DYNAMIC switchover the
// paper describes, over combinations instead of per-type ladders.
func (d *DynamicJoint) SelectCombo(st abr.State) media.Combo {
	allowed := d.bola.allowed
	tput := allowed[0]
	if est, ok := d.bola.Estimate(); ok {
		budget := media.Bps(float64(est) * d.SafetyFactor)
		tput = abr.HighestAtMost(allowed, budget, media.Combo.DeclaredBitrate)
	}
	bola := d.bola.SelectCombo(st)
	buffer := st.MinBuffer()
	if d.usingBola {
		if buffer < d.ExitBuffer && bola.DeclaredBitrate() < tput.DeclaredBitrate() {
			d.usingBola = false
		}
	} else {
		if buffer > d.EnterBuffer && bola.DeclaredBitrate() >= tput.DeclaredBitrate() {
			d.usingBola = true
		}
	}
	if d.usingBola {
		return bola
	}
	return tput
}
