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

	"demuxabr/internal/abr"
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
	e := newEWMA(halfLife)
	return &e
}

// newEWMA is NewEWMA's average as a value, for an owner to hold by value.
func newEWMA(halfLife time.Duration) EWMA { return EWMA{halfLife: halfLife.Seconds()} }

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

	// fast and slow are held by value, so a copy of an estimator that has
	// not sampled yet is an independent estimator.
	fast, slow EWMA
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
		fast:            newEWMA(2 * time.Second),
		slow:            newEWMA(5 * time.Second),
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

	// samples and sorted start, on first use, in buf's two arrays, and
	// move to the heap only if the window ever holds more than
	// percentileCap samples.
	samples     []weightedSample
	totalWeight float64

	// sorted is samples ordered by value, rebuilt in place by the first
	// Estimate after an Add. The scan over it reads Percentile on every
	// call, so changing Percentile needs no invalidation.
	sorted      []weightedSample
	sortedFresh bool

	// buf holds the window inside its owner, so a model that holds the
	// window by value allocates nothing for it. A window must therefore
	// not be copied once used: the copy would share buf's arrays.
	buf [2][percentileCap]weightedSample
}

type weightedSample struct {
	value  float64
	weight float64
}

// percentileCap is the capacity a SlidingPercentile's arrays start at. A
// meter sample weighs the square root of its bytes, so at the default
// MaxWeight a window of samples above 62,500 bytes each retains at most
// seven, plus the one Add appends before it evicts. The smaller samples of
// low-bitrate sessions fill a window with more than eight, and then Add
// and Estimate move its arrays to the heap.
const percentileCap = 8

// NewSlidingPercentile returns the percentile tracker with ExoPlayer's
// defaults (max weight 2000, percentile 0.5). It is a value, so a model
// holds its window inside itself rather than behind a pointer of its own.
func NewSlidingPercentile() SlidingPercentile {
	return SlidingPercentile{MaxWeight: 2000, Percentile: 0.5}
}

// Add records a sample with the given weight.
func (p *SlidingPercentile) Add(weight, value float64) {
	if weight <= 0 {
		return
	}
	if p.samples == nil {
		p.samples = p.buf[0][:0]
	}
	p.samples = append(p.samples, weightedSample{value: value, weight: weight})
	p.sortedFresh = false
	p.totalWeight += weight
	// Evict oldest first, then move the survivors to the front of the
	// backing array: re-slicing past the evicted samples instead would
	// walk off its end and make every later append reallocate.
	k := 0
	for p.totalWeight > p.MaxWeight && len(p.samples)-k > 1 {
		p.totalWeight -= p.samples[k].weight
		k++
	}
	if k > 0 {
		p.samples = append(p.samples[:0], p.samples[k:]...)
	}
}

// Estimate returns the weighted percentile; ok is false with no samples.
// The sort is reused until the next Add, so repeated estimates allocate
// nothing, and neither does the first one.
func (p *SlidingPercentile) Estimate() (float64, bool) {
	if len(p.samples) == 0 {
		return 0, false
	}
	if !p.sortedFresh {
		if p.sorted == nil {
			p.sorted = p.buf[1][:0]
		}
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
//
// It is an abr.Observer of its own, so a model that embeds it is fed the
// transfer events with no code of its own.
type GlobalMeter struct {
	percentile SlidingPercentile

	activeCount int
	activeSince time.Duration
	accBytes    float64
	accTime     time.Duration
}

// NewGlobalMeter returns the meter with ExoPlayer's percentile defaults,
// as a value for a model to hold by value (see NewSlidingPercentile).
func NewGlobalMeter() GlobalMeter {
	return GlobalMeter{percentile: NewSlidingPercentile()}
}

// OnStart implements abr.Observer: a transfer became active at ti.At.
func (m *GlobalMeter) OnStart(ti abr.TransferInfo) {
	if m.activeCount == 0 {
		m.activeSince = ti.At
	}
	m.activeCount++
}

// OnProgress implements abr.Observer: like ExoPlayer's
// DefaultBandwidthMeter, bytes are accounted as they flow, from all
// concurrent transfers of both streams.
func (m *GlobalMeter) OnProgress(ti abr.TransferInfo) { m.accBytes += ti.Bytes }

// OnComplete implements abr.Observer: a completion at ti.At closes one
// sampling window, emitting a sample covering the bytes accumulated since
// the last sample.
func (m *GlobalMeter) OnComplete(ti abr.TransferInfo) {
	if m.activeCount <= 0 {
		return
	}
	m.accTime += ti.At - m.activeSince
	if m.accTime > 0 && m.accBytes > 0 {
		bps := m.accBytes * 8 / m.accTime.Seconds()
		m.percentile.Add(math.Sqrt(m.accBytes), bps)
		m.accBytes = 0
		m.accTime = 0
	}
	m.activeCount--
	m.activeSince = ti.At
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

	// samples starts in buf on the first Add, which needs room for
	// Window+1: one more than the window, for the sample Add appends
	// before it trims. A window too long for buf allocates its array
	// then. As with SlidingPercentile, a used window must not be copied.
	samples []float64
	buf     [meanCap]float64
}

// meanCap is the longest window plus one that SlidingMean keeps inside
// itself: dash.js's VOD window of 4, and its live window of 3.
const meanCap = 5

// NewSlidingMean returns a mean estimator with dash.js's VOD window of 4,
// as a value for a model to hold by value (see NewSlidingPercentile).
func NewSlidingMean() SlidingMean { return SlidingMean{Window: 4} }

// Add records one per-segment throughput sample in bits/s.
func (s *SlidingMean) Add(bps float64) {
	if s.samples == nil {
		if n := max(s.Window, 0) + 1; n <= meanCap {
			s.samples = s.buf[:0:n]
		} else {
			s.samples = make([]float64, 0, n)
		}
	}
	s.samples = append(s.samples, bps)
	if k := len(s.samples) - s.Window; k > 0 {
		// In place, so the backing array is reused (see SlidingPercentile.Add).
		s.samples = append(s.samples[:0], s.samples[k:]...)
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
