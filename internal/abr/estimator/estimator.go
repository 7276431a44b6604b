// Package estimator implements the bandwidth estimators of the three players
// the paper studies, plus the shared aggregate estimator its §4 best
// practices call for.
//
//   - ShakaEstimator: dual EWMA over δ-interval samples with a 16 KB validity
//     filter and a 500 Kbps default (§3.3) — the root cause of Fig. 4.
//   - GlobalMeter: ExoPlayer's DefaultBandwidthMeter — bytes from all
//     concurrent transfers over active time, into a weighted sliding
//     percentile (§3.2).
//   - SlidingMean: dash.js's per-type throughput history (§3.4).
package estimator

import (
	"cmp"
	"math"
	"slices"
	"time"

	"demuxabr/internal/media"
)

// EWMA is an exponentially weighted moving average with a half-life measured
// in sample weight (Shaka's shaka.abr.Ewma). The zero-bias correction makes
// early estimates track the samples instead of the zero initial state.
type EWMA struct {
	halfLife    float64 // weight units (seconds of download time)
	estimate    float64
	totalWeight float64
}

// NewEWMA creates an EWMA whose estimate decays by half after halfLife
// seconds' worth of sample weight.
func NewEWMA(halfLife time.Duration) *EWMA {
	return &EWMA{halfLife: halfLife.Seconds()}
}

// Sample folds in a value observed over the given weight (seconds).
func (e *EWMA) Sample(weight float64, value float64) {
	if weight <= 0 || e.halfLife <= 0 {
		return
	}
	alpha := math.Pow(0.5, weight/e.halfLife)
	e.estimate = alpha*e.estimate + (1-alpha)*value
	e.totalWeight += weight
}

// Estimate returns the zero-bias-corrected average; ok is false before the
// first sample.
func (e *EWMA) Estimate() (float64, bool) {
	if e.totalWeight <= 0 {
		return 0, false
	}
	zeroFactor := 1 - math.Pow(0.5, e.totalWeight/e.halfLife)
	return e.estimate / zeroFactor, true
}

// ShakaEstimator models Shaka Player's EwmaBandwidthEstimator (§3.3): every
// δ = 0.125 s of an active download contributes a throughput sample only if
// at least MinBytes moved in the interval; accepted samples feed fast and
// slow EWMAs and the estimate is their minimum. Until the first accepted
// sample the estimator reports DefaultEstimate.
//
// Both failure modes the paper demonstrates fall out of this design:
// sustained rates below MinBytes/δ (≈1.05 Mbps) never produce a sample, so
// the 500 Kbps default sticks (Fig. 4(a)); under bimodal bandwidth only the
// high phase is sampled, so the estimate converges far above the true
// average (Fig. 4(b)).
type ShakaEstimator struct {
	// MinBytes is the per-interval validity threshold (default 16 KiB).
	MinBytes float64
	// DefaultEstimate is reported before any valid sample (default 500 Kbps).
	DefaultEstimate media.Bps

	fast, slow *EWMA
	hasSample  bool
}

// ShakaSampleInterval is Shaka's throughput sampling period δ.
const ShakaSampleInterval = 125 * time.Millisecond

// NewShakaEstimator creates the estimator with Shaka's defaults: 16 KiB
// minimum interval bytes, 500 Kbps default estimate, 2 s / 5 s half-lives.
func NewShakaEstimator() *ShakaEstimator {
	return &ShakaEstimator{
		MinBytes:        16 * 1024,
		DefaultEstimate: media.Kbps(500),
		fast:            NewEWMA(2 * time.Second),
		slow:            NewEWMA(5 * time.Second),
	}
}

// Interval feeds the bytes moved during one δ interval of one transfer.
// Intervals below MinBytes are discarded (the filtering rule of §3.3).
func (s *ShakaEstimator) Interval(bytes float64, interval time.Duration) {
	if bytes < s.MinBytes {
		return
	}
	bps := bytes * 8 / interval.Seconds()
	s.fast.Sample(interval.Seconds(), bps)
	s.slow.Sample(interval.Seconds(), bps)
	s.hasSample = true
}

// Estimate returns min(fast, slow), or DefaultEstimate before any valid
// sample. ok is always true: Shaka always has a number to act on.
func (s *ShakaEstimator) Estimate() (media.Bps, bool) {
	if !s.hasSample {
		return s.DefaultEstimate, true
	}
	f, _ := s.fast.Estimate()
	sl, _ := s.slow.Estimate()
	return media.Bps(math.Min(f, sl)), true
}

// HasValidSample reports whether any interval passed the filter (false for
// the entire Fig. 4(a) run).
func (s *ShakaEstimator) HasValidSample() bool { return s.hasSample }

// SlidingPercentile is ExoPlayer's weighted sliding percentile: samples carry
// weight sqrt(bytes); once total weight exceeds MaxWeight the oldest samples
// are evicted; the estimate is the weighted percentile of the rest.
type SlidingPercentile struct {
	// MaxWeight bounds the total retained weight (ExoPlayer default 2000).
	MaxWeight float64
	// Percentile in (0,1); ExoPlayer uses 0.5 (the weighted median).
	Percentile float64

	samples     []weightedSample
	totalWeight float64

	// sorted is samples ordered by value, rebuilt in place by the first
	// Estimate after an Add. The scan over it reads Percentile on every
	// call, so changing Percentile needs no invalidation.
	sorted      []weightedSample
	sortedFresh bool
}

type weightedSample struct {
	value  float64
	weight float64
}

// NewSlidingPercentile creates the percentile tracker with ExoPlayer's
// defaults (max weight 2000, percentile 0.5).
func NewSlidingPercentile() *SlidingPercentile {
	return &SlidingPercentile{MaxWeight: 2000, Percentile: 0.5}
}

// Add records a sample with the given weight.
func (p *SlidingPercentile) Add(weight, value float64) {
	if weight <= 0 {
		return
	}
	p.samples = append(p.samples, weightedSample{value: value, weight: weight})
	p.sortedFresh = false
	p.totalWeight += weight
	for p.totalWeight > p.MaxWeight && len(p.samples) > 1 {
		p.totalWeight -= p.samples[0].weight
		p.samples = p.samples[1:]
	}
}

// Estimate returns the weighted percentile; ok is false with no samples.
// The sort is reused until the next Add, so repeated estimates allocate
// nothing.
func (p *SlidingPercentile) Estimate() (float64, bool) {
	if len(p.samples) == 0 {
		return 0, false
	}
	if !p.sortedFresh {
		p.sorted = append(p.sorted[:0], p.samples...)
		slices.SortFunc(p.sorted, func(a, b weightedSample) int { return cmp.Compare(a.value, b.value) })
		p.sortedFresh = true
	}
	target := p.Percentile * p.totalWeight
	var acc float64
	for _, s := range p.sorted {
		acc += s.weight
		if acc >= target {
			return s.value, true
		}
	}
	return p.sorted[len(p.sorted)-1].value, true
}

// GlobalMeter models ExoPlayer's DefaultBandwidthMeter (§3.2): it measures
// the aggregate bytes moved by all concurrent transfers over wall time with
// at least one transfer active, and folds a sample into a sliding percentile
// whenever a transfer completes. Because it observes the union of audio and
// video downloading, it estimates the full link capacity even when the two
// streams share the bottleneck — the behaviour the paper contrasts with
// Shaka's per-transfer sampling.
type GlobalMeter struct {
	percentile *SlidingPercentile

	activeCount int
	activeSince time.Duration
	accBytes    float64
	accTime     time.Duration
}

// NewGlobalMeter creates the meter with ExoPlayer's percentile defaults.
func NewGlobalMeter() *GlobalMeter {
	return &GlobalMeter{percentile: NewSlidingPercentile()}
}

// TransferStart notes that a transfer became active at time now.
func (m *GlobalMeter) TransferStart(now time.Duration) {
	if m.activeCount == 0 {
		m.activeSince = now
	}
	m.activeCount++
}

// TransferBytes accumulates bytes moved by any transfer.
func (m *GlobalMeter) TransferBytes(bytes float64) { m.accBytes += bytes }

// TransferEnd notes a completion at time now and emits a sample covering the
// bytes accumulated since the last sample.
func (m *GlobalMeter) TransferEnd(now time.Duration) {
	if m.activeCount <= 0 {
		return
	}
	elapsed := now - m.activeSince
	m.accTime += elapsed
	if m.accTime > 0 && m.accBytes > 0 {
		bps := m.accBytes * 8 / m.accTime.Seconds()
		m.percentile.Add(math.Sqrt(m.accBytes), bps)
		m.accBytes = 0
		m.accTime = 0
	}
	m.activeCount--
	m.activeSince = now
}

// Estimate returns the sliding-percentile bandwidth; ok is false before the
// first completed transfer.
func (m *GlobalMeter) Estimate() (media.Bps, bool) {
	v, ok := m.percentile.Estimate()
	return media.Bps(v), ok
}

// SlidingMean is dash.js's ThroughputHistory: the arithmetic mean of the
// last Window per-segment throughput samples of one media type.
type SlidingMean struct {
	// Window is the number of samples averaged (dash.js VOD default 4).
	Window int

	samples []float64
}

// NewSlidingMean creates a mean estimator with dash.js's VOD window of 4.
func NewSlidingMean() *SlidingMean { return &SlidingMean{Window: 4} }

// Add records one per-segment throughput sample in bits/s.
func (s *SlidingMean) Add(bps float64) {
	s.samples = append(s.samples, bps)
	if len(s.samples) > s.Window {
		s.samples = s.samples[len(s.samples)-s.Window:]
	}
}

// Estimate returns the mean of the retained samples; ok is false with none.
func (s *SlidingMean) Estimate() (media.Bps, bool) {
	if len(s.samples) == 0 {
		return 0, false
	}
	var sum float64
	for _, v := range s.samples {
		sum += v
	}
	return media.Bps(sum / float64(len(s.samples))), true
}
