package estimator

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"demuxabr/internal/media"
)

func TestEWMAConvergesToConstant(t *testing.T) {
	e := NewEWMA(2 * time.Second)
	if _, ok := e.Estimate(); ok {
		t.Error("estimate before samples should not be ok")
	}
	for i := 0; i < 100; i++ {
		e.Sample(0.125, 1e6)
	}
	got, ok := e.Estimate()
	if !ok || math.Abs(got-1e6) > 1 {
		t.Errorf("estimate = %v,%v; want 1e6", got, ok)
	}
}

func TestEWMAZeroBiasCorrection(t *testing.T) {
	// A single sample should yield the sample value, not something diluted
	// by the zero initial state.
	e := NewEWMA(5 * time.Second)
	e.Sample(0.125, 800e3)
	got, ok := e.Estimate()
	if !ok || math.Abs(got-800e3) > 1 {
		t.Errorf("single-sample estimate = %v, want 800e3", got)
	}
}

func TestEWMAIgnoresBadWeight(t *testing.T) {
	e := NewEWMA(2 * time.Second)
	e.Sample(0, 1e6)
	e.Sample(-1, 1e6)
	if _, ok := e.Estimate(); ok {
		t.Error("zero/negative weights should not create an estimate")
	}
}

func TestEWMATracksChange(t *testing.T) {
	e := NewEWMA(time.Second)
	for i := 0; i < 50; i++ {
		e.Sample(0.125, 1e6)
	}
	for i := 0; i < 50; i++ { // 6.25 s of new level >> half-life
		e.Sample(0.125, 2e6)
	}
	got, _ := e.Estimate()
	if math.Abs(got-2e6) > 0.05e6 {
		t.Errorf("estimate = %v, want ~2e6", got)
	}
}

func TestShakaDefaultSticksUnderFilter(t *testing.T) {
	// The Fig 4(a) pathology: at 1 Mbps every 0.125 s interval moves 15625
	// bytes < 16 KiB, so no sample is accepted and the default holds.
	s := NewShakaEstimator()
	for i := 0; i < 1000; i++ {
		s.Interval(15625, ShakaSampleInterval)
	}
	got, ok := s.Estimate()
	if !ok || got != media.Kbps(500) {
		t.Errorf("estimate = %v,%v; want the 500 Kbps default", got, ok)
	}
	if s.HasValidSample() {
		t.Error("no sample should have passed the filter")
	}
}

func TestShakaOverestimatesBimodal(t *testing.T) {
	// The Fig 4(b) pathology: high-phase intervals (1.5 Mbps -> 23437 B)
	// pass the filter, low-phase intervals (150 Kbps -> 2343 B) do not.
	// The estimate converges to the high rate although the average is 600.
	s := NewShakaEstimator()
	for cycle := 0; cycle < 20; cycle++ {
		for i := 0; i < 32; i++ { // 4 s high phase
			s.Interval(1.5e6*0.125/8, ShakaSampleInterval)
		}
		for i := 0; i < 64; i++ { // 8 s low phase
			s.Interval(150e3*0.125/8, ShakaSampleInterval)
		}
	}
	got, _ := s.Estimate()
	if got < media.Kbps(1400) {
		t.Errorf("estimate = %v; want ~1.5 Mbps (overestimation)", got)
	}
	if !s.HasValidSample() {
		t.Error("high-phase samples should have passed the filter")
	}
}

func TestShakaAcceptsExactly16KiB(t *testing.T) {
	s := NewShakaEstimator()
	s.Interval(16*1024, ShakaSampleInterval)
	if !s.HasValidSample() {
		t.Error("a 16 KiB interval must be accepted (threshold is >=)")
	}
	got, _ := s.Estimate()
	want := 16.0 * 1024 * 8 / 0.125
	if math.Abs(float64(got)-want) > 1 {
		t.Errorf("estimate = %v, want %.0f", got, want)
	}
}

func TestShakaMinOfFastSlow(t *testing.T) {
	// After a drop, the fast EWMA falls quicker; min(fast, slow) must be
	// conservative (below the stale slow value).
	s := NewShakaEstimator()
	for i := 0; i < 200; i++ {
		s.Interval(2e6*0.125/8, ShakaSampleInterval) // 2 Mbps
	}
	high, _ := s.Estimate()
	for i := 0; i < 20; i++ { // 2.5 s at 1.2 Mbps (still above filter)
		s.Interval(1.2e6*0.125/8, ShakaSampleInterval)
	}
	low, _ := s.Estimate()
	if low >= high {
		t.Errorf("estimate did not fall after rate drop: %v -> %v", high, low)
	}
}

func TestSlidingPercentileMedian(t *testing.T) {
	p := NewSlidingPercentile()
	if _, ok := p.Estimate(); ok {
		t.Error("empty percentile should not be ok")
	}
	for _, v := range []float64{100, 200, 300, 400, 500} {
		p.Add(1, v)
	}
	got, ok := p.Estimate()
	if !ok || got != 300 {
		t.Errorf("median = %v,%v; want 300", got, ok)
	}
}

func TestSlidingPercentileEviction(t *testing.T) {
	p := &SlidingPercentile{MaxWeight: 3, Percentile: 0.5}
	p.Add(1, 100)
	p.Add(1, 200)
	p.Add(1, 300)
	p.Add(1, 400) // evicts 100
	got, _ := p.Estimate()
	if got != 300 {
		t.Errorf("median after eviction = %v, want 300", got)
	}
	p.Add(0, 999) // ignored
	if got, _ := p.Estimate(); got != 300 {
		t.Errorf("zero-weight sample changed estimate to %v", got)
	}
}

func TestSlidingPercentileWeighted(t *testing.T) {
	p := NewSlidingPercentile()
	p.Add(10, 100)
	p.Add(1, 1000)
	got, _ := p.Estimate()
	if got != 100 {
		t.Errorf("weighted median = %v, want 100 (heavy sample dominates)", got)
	}
}

// referencePercentile is the weighted percentile without the cached sort:
// a fresh copy of the samples sorted with sort.Slice, then the scan.
func referencePercentile(p *SlidingPercentile) float64 {
	sorted := make([]weightedSample, len(p.samples))
	copy(sorted, p.samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].value < sorted[j].value })
	target := p.Percentile * p.totalWeight
	var acc float64
	for _, s := range sorted {
		acc += s.weight
		if acc >= target {
			return s.value
		}
	}
	return sorted[len(sorted)-1].value
}

// TestSlidingPercentileCachedSortMatchesReference interleaves Adds (with
// many tied values and evictions), Percentile changes and repeated
// Estimates, and requires each estimate to equal a fresh sort-and-scan bit
// for bit.
func TestSlidingPercentileCachedSortMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := &SlidingPercentile{MaxWeight: 40, Percentile: 0.5}
	for i := 0; i < 5000; i++ {
		switch r := rng.Intn(10); {
		case r < 5:
			// Few distinct values so ties are common.
			p.Add(rng.Float64()*3, float64(100*(1+rng.Intn(6))))
		case r < 6:
			p.Percentile = []float64{0.25, 0.5, 0.9}[rng.Intn(3)]
		}
		got, ok := p.Estimate()
		if !ok {
			if len(p.samples) != 0 {
				t.Fatalf("step %d: estimate not ok with %d samples", i, len(p.samples))
			}
			continue
		}
		if want := referencePercentile(p); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("step %d: estimate %v, reference %v", i, got, want)
		}
	}
}

// TestSlidingPercentileEstimateAllocFree pins the cached sort: an Estimate
// with no Add since the last one allocates nothing.
func TestSlidingPercentileEstimateAllocFree(t *testing.T) {
	p := NewSlidingPercentile()
	for _, v := range []float64{300, 100, 500, 200, 400} {
		p.Add(1, v)
	}
	p.Estimate()
	allocs := testing.AllocsPerRun(1000, func() { p.Estimate() })
	if allocs != 0 {
		t.Fatalf("repeated Estimate allocates %.2f objects per call, want 0", allocs)
	}
}

func TestGlobalMeterSingleTransfer(t *testing.T) {
	m := NewGlobalMeter()
	if _, ok := m.Estimate(); ok {
		t.Error("estimate before transfers should not be ok")
	}
	m.TransferStart(0)
	m.TransferBytes(125000) // 1 Mbit over 1 s
	m.TransferEnd(time.Second)
	got, ok := m.Estimate()
	if !ok || math.Abs(float64(got)-1e6) > 1 {
		t.Errorf("estimate = %v,%v; want 1 Mbps", got, ok)
	}
}

func TestGlobalMeterAggregatesConcurrent(t *testing.T) {
	// Two concurrent transfers each at 500 Kbps on a 1 Mbps link: the
	// global meter must see the full 1 Mbps, not the per-transfer share.
	m := NewGlobalMeter()
	m.TransferStart(0)
	m.TransferStart(0)
	m.TransferBytes(62500) // transfer A's bytes over 1 s at 500 Kbps
	m.TransferBytes(62500) // transfer B's bytes
	m.TransferEnd(time.Second)
	m.TransferEnd(time.Second)
	got, _ := m.Estimate()
	if math.Abs(float64(got)-1e6) > 1 {
		t.Errorf("estimate = %v, want 1 Mbps (aggregate view)", got)
	}
}

func TestGlobalMeterEndWithoutStart(t *testing.T) {
	m := NewGlobalMeter()
	m.TransferEnd(time.Second) // must not panic or corrupt state
	if _, ok := m.Estimate(); ok {
		t.Error("estimate should be absent")
	}
}

func TestSlidingMeanWindow(t *testing.T) {
	s := NewSlidingMean()
	if _, ok := s.Estimate(); ok {
		t.Error("empty mean should not be ok")
	}
	for _, v := range []float64{100, 200, 300, 400} {
		s.Add(v)
	}
	got, _ := s.Estimate()
	if got != media.Bps(250) {
		t.Errorf("mean = %v, want 250", got)
	}
	s.Add(500) // evicts 100: mean of 200..500 = 350
	got, _ = s.Estimate()
	if got != media.Bps(350) {
		t.Errorf("mean after eviction = %v, want 350", got)
	}
}

// Property: the EWMA estimate always lies within [min, max] of the samples.
func TestEWMABoundedProperty(t *testing.T) {
	f := func(vals []uint32) bool {
		if len(vals) == 0 {
			return true
		}
		e := NewEWMA(3 * time.Second)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range vals {
			x := float64(v%10_000_000) + 1
			e.Sample(0.125, x)
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		got, ok := e.Estimate()
		return ok && got >= lo-1e-6 && got <= hi+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the sliding percentile estimate is always one of the samples
// still in the window.
func TestSlidingPercentileMembershipProperty(t *testing.T) {
	f := func(vals []uint16) bool {
		if len(vals) == 0 {
			return true
		}
		p := NewSlidingPercentile()
		seen := map[float64]bool{}
		for _, v := range vals {
			x := float64(v) + 1
			p.Add(math.Sqrt(x), x)
			seen[x] = true
		}
		got, ok := p.Estimate()
		return ok && seen[got]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGlobalMeterMultiplePeriods(t *testing.T) {
	// Two disjoint active periods at different rates: the sliding
	// percentile blends both; neither period is lost.
	m := NewGlobalMeter()
	m.TransferStart(0)
	m.TransferBytes(125000) // 1 Mbps for 1 s
	m.TransferEnd(time.Second)
	m.TransferStart(10 * time.Second)
	m.TransferBytes(250000) // 2 Mbps for 1 s
	m.TransferEnd(11 * time.Second)
	got, ok := m.Estimate()
	if !ok || got < media.Kbps(1000) || got > media.Kbps(2000) {
		t.Errorf("estimate = %v, want within [1,2] Mbps", got)
	}
}

func TestShakaEstimatorCustomThreshold(t *testing.T) {
	s := NewShakaEstimator()
	s.MinBytes = 1000
	s.Interval(1500, ShakaSampleInterval)
	if !s.HasValidSample() {
		t.Error("sample above custom threshold rejected")
	}
}

func TestSlidingMeanCustomWindow(t *testing.T) {
	s := &SlidingMean{Window: 2}
	s.Add(100)
	s.Add(200)
	s.Add(600)
	got, _ := s.Estimate()
	if got != media.Bps(400) {
		t.Errorf("window-2 mean = %v, want 400", got)
	}
}

func TestEWMAEstimateBeforeAndAfter(t *testing.T) {
	e := NewEWMA(0) // zero half-life: samples ignored
	e.Sample(1, 100)
	if _, ok := e.Estimate(); ok {
		t.Error("zero half-life should never estimate")
	}
}
