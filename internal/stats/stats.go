// Package stats provides the small summary-statistics helpers the QoE and
// experiment layers share: percentiles, means, and distribution summaries
// over float64 samples.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using linear
// interpolation between closest ranks. It returns NaN for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return Min(xs)
	}
	if p >= 100 {
		return Max(xs)
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return sortedPercentile(sorted, p)
}

// sortedPercentile is Percentile's interpolation over an already-sorted
// slice, shared by Summarize so one sort serves every quantile.
func sortedPercentile(sorted []float64, p float64) float64 {
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean; NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Min returns the smallest value; NaN for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest value; NaN for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Summary is a five-number distribution sketch.
type Summary struct {
	Min, P10, Median, P90, Max float64
	Mean                       float64
	N                          int
}

// Summarize computes a Summary over the samples, leaving xs as it was: it
// is SummarizeScratch on a copy (one allocation) — TestSummarizeAllocs
// pins the allocation count so the per-Percentile re-sorts this replaced
// cannot creep back.
func Summarize(xs []float64) Summary { return SummarizeScratch(slices.Clone(xs)) }

// SummarizeScratch computes the Summary SummarizeInPlace does, bit for
// bit, leaving xs in no particular order: it sums xs in the caller's
// order, then selects the order statistics the quantiles read instead of
// sorting. Values that compare equal are then equal to the bit, except
// zeros of both signs, which a sort may order either way; an input with
// both, or with a NaN, is summarized by SummarizeInPlace.
func SummarizeScratch(xs []float64) Summary {
	n := len(xs)
	if n == 0 {
		return SummarizeInPlace(xs)
	}
	var sum float64
	negZero, posZero := false, false
	for _, x := range xs {
		sum += x
		switch math.Float64bits(x) {
		case 1 << 63:
			negZero = true
		case 0:
			posZero = true
		}
		if math.IsNaN(x) {
			return SummarizeInPlace(xs)
		}
	}
	if negZero && posZero {
		return SummarizeInPlace(xs)
	}
	// The ranks sortedPercentile reads for each quantile, and the ends.
	var ranks [8]int
	k := 0
	ranks[k], k = 0, k+1
	for _, p := range [3]float64{10, 50, 90} {
		rank := p / 100 * float64(n-1)
		ranks[k], ranks[k+1], k = int(math.Floor(rank)), int(math.Ceil(rank)), k+2
	}
	ranks[k], k = n-1, k+1
	slices.Sort(ranks[:k])
	selectRanks(xs, ranks[:k], 2*bits.Len(uint(n)))
	return Summary{
		Min:    xs[0],
		P10:    sortedPercentile(xs, 10),
		Median: sortedPercentile(xs, 50),
		P90:    sortedPercentile(xs, 90),
		Max:    xs[n-1],
		Mean:   sum / float64(n),
		N:      n,
	}
}

// selectRanks reorders xs, which holds no NaN, so that xs[r] is the value
// a sort would put there for every r in ranks, which are ascending (a rank
// may repeat). It partitions three ways around a median-of-three pivot
// and goes on only into the sides that hold a rank; a side of a dozen
// values or fewer, or one left after depth partitions, is sorted.
func selectRanks(xs []float64, ranks []int, depth int) {
	for len(ranks) > 0 {
		n := len(xs)
		if n <= 12 || depth == 0 {
			sort.Float64s(xs)
			return
		}
		depth--
		a, b, c := xs[0], xs[n/2], xs[n-1]
		if a > b {
			a, b = b, a
		}
		if b > c {
			b = c
			if a > b {
				b = a
			}
		}
		pivot := b
		// xs[:lt] < pivot, xs[lt:i] == pivot, xs[gt:] > pivot.
		lt, i, gt := 0, 0, n
		for i < gt {
			switch x := xs[i]; {
			case x < pivot:
				xs[lt], xs[i] = x, xs[lt]
				lt++
				i++
			case x > pivot:
				gt--
				xs[gt], xs[i] = x, xs[gt]
			default:
				i++
			}
		}
		// Ranks in [lt, gt) hold the pivot's value already.
		lo := 0
		for lo < len(ranks) && ranks[lo] < lt {
			lo++
		}
		hi := lo
		for hi < len(ranks) && ranks[hi] < gt {
			hi++
		}
		selectRanks(xs[:lt], ranks[:lo], depth)
		ranks = ranks[hi:]
		for j := range ranks {
			ranks[j] -= gt
		}
		xs = xs[gt:]
	}
}

// SummarizeInPlace computes a Summary over the samples without copying
// them: it sums xs in the caller's order, then sorts xs itself and reads
// every order statistic off it. A caller that owns a sample slice it no
// longer needs in its original order saves Summarize's copy.
func SummarizeInPlace(xs []float64) Summary {
	if len(xs) == 0 {
		nan := math.NaN()
		return Summary{Min: nan, P10: nan, Median: nan, P90: nan, Max: nan, Mean: nan}
	}
	// Sum in the caller's order, before sorting: float addition is not
	// associative, and the mean must stay bit-identical to what Mean(xs)
	// returned before the single-sort rewrite (golden JSON pins it).
	var sum float64
	for _, x := range xs {
		sum += x
	}
	sort.Float64s(xs)
	return Summary{
		Min:    xs[0],
		P10:    sortedPercentile(xs, 10),
		Median: sortedPercentile(xs, 50),
		P90:    sortedPercentile(xs, 90),
		Max:    xs[len(xs)-1],
		Mean:   sum / float64(len(xs)),
		N:      len(xs),
	}
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%.2f p10=%.2f med=%.2f p90=%.2f max=%.2f mean=%.2f",
		s.N, s.Min, s.P10, s.Median, s.P90, s.Max, s.Mean)
}

// NullableFloat marshals a float64 as JSON, emitting null for NaN and ±Inf
// — values encoding/json rejects outright. The empty distribution's NaN
// quantiles would otherwise make any document embedding a Summary fail to
// serialize.
type NullableFloat float64

// MarshalJSON implements json.Marshaler.
func (f NullableFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON implements json.Unmarshaler; null decodes to NaN, matching
// what Summarize reports for an empty distribution.
func (f *NullableFloat) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		*f = NullableFloat(math.NaN())
		return nil
	}
	var v float64
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	*f = NullableFloat(v)
	return nil
}

// MarshalJSON serializes the summary with NaN/Inf statistics (the empty
// distribution) rendered as null, so documents embedding a Summary always
// marshal cleanly.
func (s Summary) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Min    NullableFloat `json:"min"`
		P10    NullableFloat `json:"p10"`
		Median NullableFloat `json:"median"`
		P90    NullableFloat `json:"p90"`
		Max    NullableFloat `json:"max"`
		Mean   NullableFloat `json:"mean"`
		N      int           `json:"n"`
	}{
		Min:    NullableFloat(s.Min),
		P10:    NullableFloat(s.P10),
		Median: NullableFloat(s.Median),
		P90:    NullableFloat(s.P90),
		Max:    NullableFloat(s.Max),
		Mean:   NullableFloat(s.Mean),
		N:      s.N,
	})
}
