// Package lowlat implements the three low-latency ABR rules the live
// experiments compare, modelled on the dash.js low-latency player family:
//
//   - Default: dash.js's throughput rule run unchanged in a low-latency
//     session — sliding-mean estimate, 0.9 safety factor, no latency
//     feedback. With nothing reacting to latency error, sustained pressure
//     makes the session drift away from the target.
//   - L2A: Learn2Adapt-LowLatency. An online-learning formulation whose
//     latency constraint enters through a virtual queue: violations
//     accumulate and shrink the bitrate budget multiplicatively, so the rule
//     reacts hard (down to the lowest rung) when latency overruns, then
//     springs back to the full estimate once the queue drains. Lowest
//     latency of the trio, at the price of oscillation and extra stalls.
//   - LoLP: LoL+. A conservative low-percentile throughput estimate, a 0.8
//     safety factor, and up-switch hysteresis gated on both buffer and
//     latency headroom. Fewest stalls, latency held closest to target.
//
// All three are joint algorithms (abr.JointAlgorithm) selecting from the
// allowed combination list, so they compose with the demuxed-vs-muxed and
// transport axes the rest of the library studies.
package lowlat

import (
	"math"
	"time"

	"demuxabr/internal/abr"
	"demuxabr/internal/abr/estimator"
	"demuxabr/internal/media"
)

// Tuning of the three rules. The values follow the upstream players where
// one exists (dash.js live window, throughput-rule safety) and are otherwise
// chosen so the qualitative orderings the live experiments assert hold on
// the deterministic traces.
const (
	// LiveWindow is dash.js's live throughput-history window (3 samples,
	// versus 4 for VOD).
	LiveWindow = 3
	// DefaultSafety is the dash.js throughput-rule bandwidth safety factor.
	DefaultSafety = 0.9
	// L2AQueueGain scales how strongly the accumulated latency-violation
	// queue shrinks the budget: budget = est / (1 + gain·Q).
	L2AQueueGain = 1.5
	// L2AQueueDecay leaks the queue each decision, so steady small latency
	// errors settle at a modest budget cut instead of accumulating without
	// bound, and the post-overrun collapse recovers within a few chunks.
	L2AQueueDecay = 0.6
	// L2AQueueMax caps the virtual queue (seconds of accumulated violation)
	// so recovery after a long overrun stays bounded.
	L2AQueueMax = 8.0
	// LoLPSafety is LoL+'s bandwidth safety factor.
	LoLPSafety = 0.8
	// LoLPPercentile is the throughput percentile LoL+ trusts — deliberately
	// below the median so transient peaks never drive an up-switch.
	LoLPPercentile = 0.25
	// LoLPLatencySlack is the latency headroom above target within which
	// LoL+ still allows quality increases.
	LoLPLatencySlack = 500 * time.Millisecond
	// LoLPMinHold is LoL+'s minimum spacing between quality increases —
	// several segment durations, so one good stretch cannot ratchet the
	// session up into the next dip.
	LoLPMinHold = 15 * time.Second
)

// Default is the dash.js throughput rule in a low-latency session: the mean
// of the last LiveWindow per-segment throughput samples, a 0.9 safety
// factor, and no latency term anywhere in the decision. It is the trio's
// control: whatever latency behaviour it shows is produced entirely by the
// player's catch-up controller, which a too-optimistic selection can starve.
type Default struct {
	abr.NopObserver

	allowed []media.Combo
	hist    estimator.SlidingMean
}

// NewDefault creates the latency-blind throughput rule over the allowed
// combination list, which the rule shares and never writes.
func NewDefault(allowed *abr.Allowed) *Default {
	hist := estimator.NewSlidingMean()
	hist.Window = LiveWindow
	return &Default{allowed: allowed.Combos(), hist: hist}
}

// Name implements abr.Algorithm.
func (d *Default) Name() string { return "ll-default" }

// OnComplete implements abr.Observer: one throughput sample per completed
// chunk, dash.js style.
func (d *Default) OnComplete(ti abr.TransferInfo) {
	if tput := ti.Throughput(); tput > 0 {
		d.hist.Add(tput)
	}
}

// BandwidthEstimate implements abr.BandwidthReporter.
func (d *Default) BandwidthEstimate() (media.Bps, bool) { return d.hist.Estimate() }

// SelectCombo implements abr.JointAlgorithm: richest combination within
// 0.9× the sliding mean; the lowest rung before the first sample.
func (d *Default) SelectCombo(st abr.State) media.Combo {
	est, ok := d.hist.Estimate()
	if !ok {
		return d.allowed[0]
	}
	budget := media.Bps(float64(est) * DefaultSafety)
	return abr.HighestAtMost(d.allowed, budget, media.Combo.DeclaredBitrate)
}

// L2A is the Learn2Adapt-LowLatency rule. The full algorithm is online
// convex optimization over the bitrate ladder; the behavioural core kept
// here is its constraint mechanism — a virtual queue Q that integrates
// latency violation and divides the bitrate budget:
//
//	Q ← clamp(Q + (latency − target), 0, max)
//	budget = reactive_estimate / (1 + gain·Q)
//
// With no safety factor on the estimate (the formulation optimizes bitrate
// directly), the rule runs hot while latency is on target, then collapses to
// the lowest rungs as soon as the queue grows — the low-latency /
// more-stalls trade the live experiments measure.
type L2A struct {
	abr.NopObserver

	allowed []media.Combo
	hist    estimator.SlidingMean
	last    float64 // most recent per-chunk throughput sample
	queue   float64 // virtual latency-violation queue, seconds
}

// NewL2A creates the Learn2Adapt rule over the allowed combination list,
// which the rule shares and never writes.
func NewL2A(allowed *abr.Allowed) *L2A {
	hist := estimator.NewSlidingMean()
	hist.Window = LiveWindow
	return &L2A{allowed: allowed.Combos(), hist: hist}
}

// Name implements abr.Algorithm.
func (l *L2A) Name() string { return "ll-l2a" }

// OnComplete implements abr.Observer.
func (l *L2A) OnComplete(ti abr.TransferInfo) {
	if tput := ti.Throughput(); tput > 0 {
		l.hist.Add(tput)
		l.last = tput
	}
}

// BandwidthEstimate implements abr.BandwidthReporter: the reactive estimate
// — the last sample when it undercuts the mean, so a sudden drop is acted on
// within one chunk.
func (l *L2A) BandwidthEstimate() (media.Bps, bool) {
	mean, ok := l.hist.Estimate()
	if !ok {
		return 0, false
	}
	return media.Bps(math.Min(float64(mean), l.last)), true
}

// SelectCombo implements abr.JointAlgorithm.
func (l *L2A) SelectCombo(st abr.State) media.Combo {
	// Integrate the latency constraint into the leaky virtual queue. VOD
	// sessions (target zero) leave the queue at zero and get the plain
	// reactive rule.
	if st.LatencyTarget > 0 {
		err := (st.Latency - st.LatencyTarget).Seconds()
		l.queue = math.Min(math.Max(l.queue*L2AQueueDecay+err, 0), L2AQueueMax)
	}
	est, ok := l.BandwidthEstimate()
	if !ok {
		return l.allowed[0]
	}
	budget := media.Bps(float64(est) / (1 + L2AQueueGain*l.queue))
	return abr.HighestAtMost(l.allowed, budget, media.Combo.DeclaredBitrate)
}

// LoLP is the LoL+ rule: a low-percentile throughput estimate weighted by
// chunk size and capped by the most recent sample, a 0.8 safety factor,
// immediate down-switches, and up-switches gated three ways — a chunk of
// buffer in both streams, latency within slack of target, and a minimum
// hold since the previous increase. The conservatism is the point: it is
// the trio's fewest-stalls, closest-to-target configuration.
type LoLP struct {
	abr.NopObserver

	allowed []media.Combo
	hist    estimator.SlidingPercentile
	last    float64 // most recent per-chunk throughput sample
	current media.Combo
	lastUp  time.Duration
}

// NewLoLP creates the LoL+ rule over the allowed combination list, which
// the rule shares and never writes.
func NewLoLP(allowed *abr.Allowed) *LoLP {
	hist := estimator.NewSlidingPercentile()
	hist.Percentile = LoLPPercentile
	return &LoLP{allowed: allowed.Combos(), hist: hist}
}

// Name implements abr.Algorithm.
func (p *LoLP) Name() string { return "ll-lolp" }

// OnComplete implements abr.Observer: samples weighted by sqrt(bytes), so
// tiny audio chunks cannot swamp the percentile.
func (p *LoLP) OnComplete(ti abr.TransferInfo) {
	if tput := ti.Throughput(); tput > 0 {
		p.hist.Add(math.Sqrt(ti.Bytes), tput)
		p.last = tput
	}
}

// BandwidthEstimate implements abr.BandwidthReporter: the percentile capped
// by the most recent sample, so a sharp dip pulls the estimate down within
// one chunk instead of waiting for the percentile window to turn over.
func (p *LoLP) BandwidthEstimate() (media.Bps, bool) {
	v, ok := p.hist.Estimate()
	if !ok {
		return 0, false
	}
	return media.Bps(math.Min(v, p.last)), true
}

// SelectCombo implements abr.JointAlgorithm.
func (p *LoLP) SelectCombo(st abr.State) media.Combo {
	est, ok := p.BandwidthEstimate()
	if !ok {
		p.current = p.allowed[0]
		return p.current
	}
	budget := media.Bps(float64(est) * LoLPSafety)
	ideal := abr.HighestAtMost(p.allowed, budget, media.Combo.DeclaredBitrate)
	if p.current.Video == nil {
		p.current = ideal
		return p.current
	}
	switch {
	case ideal.DeclaredBitrate() > p.current.DeclaredBitrate():
		// Live buffers are bounded by the latency target (a player cannot
		// hold more media than it trails the edge by), so the buffer gate
		// adapts: half the target when that is tighter than a chunk.
		gate := st.ChunkDuration
		if st.LatencyTarget > 0 && st.LatencyTarget/2 < gate {
			gate = st.LatencyTarget / 2
		}
		okBuffer := st.MinBuffer() >= gate
		okLatency := st.LatencyTarget <= 0 || st.Latency <= st.LatencyTarget+LoLPLatencySlack
		okHold := st.Now-p.lastUp >= LoLPMinHold
		if okBuffer && okLatency && okHold {
			p.current = ideal
			p.lastUp = st.Now
		}
	case ideal.DeclaredBitrate() < p.current.DeclaredBitrate():
		p.current = ideal
	}
	return p.current
}
