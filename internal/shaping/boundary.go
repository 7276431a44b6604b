package shaping

import (
	"fmt"
	"math"
	"time"
)

// boundaryParams is the per-type boundary-search objective. Each chunk
// [a,b) costs
//
//	requestCost + varianceCost·∫(c(t)−mean)²dt + lengthCost·(b−a)²
//
// and the DP minimizes the total: requestCost pushes toward fewer, longer
// chunks (the per-request RTT tax demuxing doubles), varianceCost cuts
// chunks at scene changes, lengthCost caps runaway chunk growth between
// them.
type boundaryParams struct {
	minChunk, maxChunk time.Duration
	requestCost        float64
	varianceCost       float64
	lengthCost         float64
}

// videoBoundary and audioBoundary bound the boundary search per track
// type. Audio gets longer chunks than video: its complexity is flat, so its
// optimum is pure request-overhead amortization, near
// sqrt(requestCost/lengthCost) ≈ 6s — longer than video chunks and
// misaligned with them.
var (
	videoBoundary = boundaryParams{
		minChunk:     2 * time.Second,
		maxChunk:     8 * time.Second,
		requestCost:  0.30,
		varianceCost: 2.0,
		lengthCost:   0.004,
	}
	audioBoundary = boundaryParams{
		minChunk:    3 * time.Second,
		maxChunk:    9 * time.Second,
		requestCost: 0.36,
		lengthCost:  0.01,
	}
)

// optimizeBoundaries runs the boundary DP for one track type: cells holds
// the per-grid-cell mean complexity (last cell may be short), and the
// returned durations are grid-aligned, strictly positive, and sum exactly
// to total.
//
// Dynamic program over grid positions p_0=0 < p_1 < … < p_N=total:
// best[i] is the cheapest chunking of [0, p_i) ending with a boundary at
// p_i, built from every feasible predecessor j with
// params.minChunk ≤ p_i−p_j ≤ params.maxChunk (the final boundary also
// accepts a shorter remainder chunk, so any total is feasible).
func optimizeBoundaries(cells []float64, total time.Duration, params boundaryParams) ([]time.Duration, float64, error) {
	if total <= params.maxChunk {
		// Degenerate short title: one chunk.
		secs := total.Seconds()
		return []time.Duration{total}, params.requestCost + params.lengthCost*secs*secs, nil
	}

	// Grid positions and integral prefix sums of c and c² (cell widths are
	// grid except possibly the last).
	n := len(cells)
	pos := make([]time.Duration, n+1)
	s1 := make([]float64, n+1)
	s2 := make([]float64, n+1)
	for j := 0; j < n; j++ {
		pos[j] = time.Duration(j) * grid
		w := grid
		if pos[j]+w > total {
			w = total - pos[j]
		}
		ws := w.Seconds()
		s1[j+1] = s1[j] + cells[j]*ws
		s2[j+1] = s2[j] + cells[j]*cells[j]*ws
	}
	pos[n] = total

	// +Inf marks unreached positions; math.IsInf keeps the sentinel test
	// exact without a float equality.
	best := make([]float64, n+1)
	from := make([]int, n+1)
	for i := 1; i <= n; i++ {
		best[i] = math.Inf(1)
		from[i] = -1
	}
	for i := 1; i <= n; i++ {
		minLen := params.minChunk
		if i == n {
			// The remainder chunk may be shorter than minChunk (but never
			// shorter than one grid cell).
			minLen = grid
		}
		for j := i - 1; j >= 0; j-- {
			d := pos[i] - pos[j]
			if d > params.maxChunk {
				break
			}
			if d < minLen || math.IsInf(best[j], 1) {
				continue
			}
			secs := d.Seconds()
			mean := (s1[i] - s1[j]) / secs
			varInt := (s2[i] - s2[j]) - secs*mean*mean
			if varInt < 0 {
				varInt = 0 // float noise on constant signals
			}
			c := best[j] + params.requestCost + params.varianceCost*varInt + params.lengthCost*secs*secs
			if c < best[i] {
				best[i] = c
				from[i] = j
			}
		}
	}
	if math.IsInf(best[n], 1) {
		return nil, 0, fmt.Errorf("no feasible chunking of %v with bounds [%v, %v]", total, params.minChunk, params.maxChunk)
	}

	var bounds []int
	for i := n; i > 0; i = from[i] {
		bounds = append(bounds, i)
	}
	durs := make([]time.Duration, len(bounds))
	prev := 0
	for k := len(bounds) - 1; k >= 0; k-- {
		i := bounds[k]
		durs[len(bounds)-1-k] = pos[i] - pos[prev]
		prev = i
	}
	return durs, best[n], nil
}
