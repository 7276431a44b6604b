package stats

import (
	"fmt"
	"math"
)

// Sketch is a mergeable fixed-resolution histogram for streaming quantile
// estimation over a known value range. It exists so fleet aggregation can
// run in O(bins) memory per shard instead of retaining every sample, while
// staying exactly merge-order independent:
//
//   - bin counts are integers, so Add and Merge commute and associate;
//   - min/max are tracked exactly (commutative);
//   - Mean is computed at query time from bin centers in fixed bin order,
//     never from a running float sum whose value would depend on arrival
//     order.
//
// Merging any partition of a sample stream, in any order, therefore yields
// a Sketch whose every query answer is bit-identical.
//
// Accuracy: for samples inside [lo, hi), Quantile differs from the exact
// Percentile of the same samples by at most ErrorBound() (one bin width):
// each sample is displaced at most one bin width from its true value, and
// percentile interpolation is 1-Lipschitz in the order statistics. Mean is
// within half a bin width. Samples outside [lo, hi) are clamped into the
// edge bins: N, Min, and Max remain exact, but quantile and mean error for
// the clamped mass is bounded only by its distance to the range edge —
// choose the range to cover the metric's physical domain.
//
// Memory: the bins are kept in pages of pageBins, each allocated when a
// sample first lands in it, so a sketch costs only the pages its samples
// touch. A page never touched holds zero counts, as do the last page's
// slots past the final bin, and no query reads a zero count, so the
// paging changes no answer.
type Sketch struct {
	lo, hi float64
	width  float64
	nbins  int
	// pages holds bin i at pages[i/pageBins][i%pageBins]; a nil page is
	// all zeros.
	pages []*page
	n     int64
	min   float64
	max   float64
}

// pageBins is the number of bins per page: 4 KiB of counts. A fleet
// metric's samples cluster in a few pages of its range.
const pageBins = 512

type page [pageBins]int64

// NewSketch returns a sketch over [lo, hi) with the given bin count.
func NewSketch(lo, hi float64, bins int) *Sketch {
	if !(hi > lo) || bins <= 0 {
		panic(fmt.Sprintf("stats: invalid sketch range [%v, %v) with %d bins", lo, hi, bins))
	}
	return &Sketch{
		lo:    lo,
		hi:    hi,
		width: (hi - lo) / float64(bins),
		nbins: bins,
		pages: make([]*page, (bins+pageBins-1)/pageBins),
		min:   math.Inf(1),
		max:   math.Inf(-1),
	}
}

// count returns bin i's count.
func (s *Sketch) count(i int) int64 {
	if p := s.pages[i/pageBins]; p != nil {
		return p[i%pageBins]
	}
	return 0
}

// page returns page k, allocating it on first use.
func (s *Sketch) page(k int) *page {
	p := s.pages[k]
	if p == nil {
		p = new(page)
		s.pages[k] = p
	}
	return p
}

// Add records one sample. NaN samples are ignored (they carry no order
// information; the exact path drops them from quantiles the same way).
func (s *Sketch) Add(x float64) {
	if math.IsNaN(x) {
		return
	}
	if x < s.min {
		s.min = x
	}
	if x > s.max {
		s.max = x
	}
	// Branch on the range before converting: float-to-int conversion of an
	// out-of-range value (±Inf in particular) is implementation-defined in
	// Go, and on amd64 +Inf converts to minInt — which would clamp +Inf mass
	// into the LOWEST bin. The explicit comparisons route +Inf (and any
	// x ≥ hi) to the top edge bin and -Inf (and any x < lo) to the bottom.
	var i int
	switch {
	case x < s.lo:
		i = 0
	case x >= s.hi:
		i = s.nbins - 1
	default:
		i = int((x - s.lo) / s.width)
		if i >= s.nbins { // width rounding can land x==hi-ε on the edge
			i = s.nbins - 1
		}
	}
	s.page(i / pageBins)[i%pageBins]++
	s.n++
}

// Merge folds o into s. The sketches must share a configuration; merging
// differently-shaped sketches panics (it is a programming error, never a
// data condition).
func (s *Sketch) Merge(o *Sketch) {
	//lint:ignore floateq sketch bounds are configuration constants compared for identity, not computed values
	if s.lo != o.lo || s.hi != o.hi || s.nbins != o.nbins {
		panic(fmt.Sprintf("stats: merging incompatible sketches [%v,%v)x%d and [%v,%v)x%d",
			s.lo, s.hi, s.nbins, o.lo, o.hi, o.nbins))
	}
	for k, op := range o.pages {
		if op == nil {
			continue
		}
		p := s.page(k)
		for j, c := range op {
			p[j] += c
		}
	}
	s.n += o.n
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
}

// N returns the number of samples recorded.
func (s *Sketch) N() int64 { return s.n }

// Min returns the exact minimum sample; NaN when empty.
func (s *Sketch) Min() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.min
}

// Max returns the exact maximum sample; NaN when empty.
func (s *Sketch) Max() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.max
}

// ErrorBound returns the documented worst-case quantile error for in-range
// samples: one bin width.
func (s *Sketch) ErrorBound() float64 { return s.width }

// orderStat reconstructs the k-th (0-based) order statistic, spreading each
// bin's samples uniformly across the bin.
func (s *Sketch) orderStat(k int64) float64 {
	var cum int64
	for pk, p := range s.pages {
		if p == nil {
			continue
		}
		for j, c := range p {
			if k < cum+c {
				within := float64(k-cum) + 0.5
				return s.lo + s.width*(float64(pk*pageBins+j)+within/float64(c))
			}
			cum += c
		}
	}
	return s.max
}

// Quantile returns the p-th percentile (0 ≤ p ≤ 100) with the same
// closest-rank interpolation convention as Percentile. The extremes return
// the exact Min/Max; interior quantiles are within ErrorBound of the exact
// Percentile over the same in-range samples. Empty sketches return NaN.
func (s *Sketch) Quantile(p float64) float64 {
	if s.n == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return s.Min()
	}
	if p >= 100 {
		return s.Max()
	}
	rank := p / 100 * float64(s.n-1)
	lo := int64(math.Floor(rank))
	hi := int64(math.Ceil(rank))
	v := s.orderStat(lo)
	if hi != lo {
		frac := rank - float64(lo)
		v = v*(1-frac) + s.orderStat(hi)*frac
	}
	return v
}

// Mean returns the histogram mean: bin centers weighted by counts, summed
// in fixed bin order so the result is independent of merge order. It is
// within half a bin width of the exact mean for in-range samples; NaN when
// empty.
func (s *Sketch) Mean() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	var sum float64
	for pk, p := range s.pages {
		if p == nil {
			continue
		}
		for j, c := range p {
			if c == 0 {
				continue
			}
			center := s.lo + s.width*(float64(pk*pageBins+j)+0.5)
			sum += center * float64(c)
		}
	}
	return sum / float64(s.n)
}

// Summary renders the sketch as the standard five-number summary. N is the
// exact count, Min/Max the exact extremes, the interior quantiles and mean
// sketch estimates within the documented bounds.
func (s *Sketch) Summary() Summary {
	return Summary{
		Min:    s.Min(),
		P10:    s.Quantile(10),
		Median: s.Quantile(50),
		P90:    s.Quantile(90),
		Max:    s.Max(),
		Mean:   s.Mean(),
		N:      int(s.n),
	}
}
