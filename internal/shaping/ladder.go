package shaping

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"demuxabr/internal/media"
	"demuxabr/internal/runpool"
)

// Ladder-objective constants: a rung is usable at bandwidth w when its
// bitrate fits under w with headroom to spare; a sample no rung fits pays a
// rebuffer-style penalty proportional to the overshoot of the lowest rung.
// The rungs are chosen from ladderCandidates candidate bitrates and scored
// over ladderSamples seeded bandwidth draws.
const (
	ladderCandidates    = 24
	ladderSamples       = 48
	ladderHeadroom      = 1.1
	ladderRebufPenalty  = 4.0
	ladderMedianKbps    = 1200.0
	ladderSigma         = 0.75
	ladderMinSampleKbps = 150.0
	ladderMaxSampleKbps = 9000.0
)

// searchLadder re-places the authored ladder's rungs on a geometric
// candidate grid spanning [0.6·lowest, 1.15·highest] of the ladder,
// maximizing expected log-utility over seeded bandwidth samples. One greedy
// build per candidate starting rung, fanned out via runpool and reduced in
// submission order, so the result is byte-identical for any worker count.
func searchLadder(orig media.Ladder, cfg Config) (media.Ladder, float64, error) {
	rungs := len(orig)
	cands := candidateGrid(orig, ladderCandidates)
	if len(cands) < rungs {
		return nil, 0, fmt.Errorf("%d rungs from a grid of %d candidates", rungs, len(cands))
	}
	samples := bandwidthSamples(cfg.Seed, ladderSamples)
	ref := float64(cands[0])

	type attempt struct {
		score float64
		rungs []media.Bps
	}
	attempts, err := runpool.Map(cfg.Workers, len(cands), func(s int) (attempt, error) {
		set := greedyFrom(cands, s, rungs, samples, ref)
		return attempt{score: ladderScore(set, samples, ref), rungs: set}, nil
	})
	if err != nil {
		return nil, 0, err
	}
	best := attempts[0]
	for _, a := range attempts[1:] {
		// Strict inequality: ties resolve to the lowest starting index.
		if a.score > best.score {
			best = a
		}
	}

	out := make(media.Ladder, len(best.rungs))
	for i, v := range best.rungs {
		tmpl := orig[i]
		tr := *tmpl
		ratioPeak := float64(tmpl.PeakBitrate) / float64(tmpl.AvgBitrate)
		ratioDecl := float64(tmpl.DeclaredBitrate) / float64(tmpl.AvgBitrate)
		tr.AvgBitrate = v
		tr.PeakBitrate = roundKbps(float64(v) * ratioPeak)
		tr.DeclaredBitrate = roundKbps(float64(v) * ratioDecl)
		out[i] = &tr
	}
	return out, best.score, nil
}

// candidateGrid builds the geometric candidate bitrates, rounded to whole
// Kbps and deduplicated (strictly increasing).
func candidateGrid(orig media.Ladder, n int) []media.Bps {
	lo := 0.6 * float64(orig[0].AvgBitrate)
	hi := 1.15 * float64(orig[len(orig)-1].AvgBitrate)
	out := make([]media.Bps, 0, n)
	for k := 0; k < n; k++ {
		f := float64(k) / float64(n-1)
		v := roundKbps(lo * math.Pow(hi/lo, f))
		if len(out) > 0 && v <= out[len(out)-1] {
			continue
		}
		out = append(out, v)
	}
	return out
}

func roundKbps(v float64) media.Bps {
	return media.Bps(math.Round(v/1000) * 1000)
}

// bandwidthSamples draws the seeded bandwidth distribution the objective
// integrates over: log-normal around the median, clamped to plausible
// last-mile rates.
func bandwidthSamples(seed int64, n int) []media.Bps {
	rng := rand.New(rand.NewSource(seed ^ 0xba4d1e))
	out := make([]media.Bps, n)
	for i := range out {
		kbps := ladderMedianKbps * math.Exp(ladderSigma*rng.NormFloat64())
		kbps = math.Max(ladderMinSampleKbps, math.Min(kbps, ladderMaxSampleKbps))
		out[i] = media.Kbps(kbps)
	}
	return out
}

// ladderScore is the expected per-sample utility of a rung set (must be
// sorted ascending). ref fixes the utility origin across all candidate
// ladders so scores are comparable.
func ladderScore(rungs []media.Bps, samples []media.Bps, ref float64) float64 {
	if len(rungs) == 0 {
		return math.Inf(-1)
	}
	var sum float64
	for _, w := range samples {
		fit := media.Bps(-1)
		for _, r := range rungs {
			if float64(r)*ladderHeadroom <= float64(w) {
				fit = r
			} else {
				break
			}
		}
		if fit > 0 {
			sum += math.Log(float64(fit) / ref)
		} else {
			// Nothing fits: play the lowest rung anyway and pay for the
			// overshoot (rebuffering risk grows with it).
			low := float64(rungs[0])
			sum += math.Log(low/ref) - ladderRebufPenalty*(low*ladderHeadroom/float64(w)-1)
		}
	}
	return sum / float64(len(samples))
}

// greedyFrom builds a k-rung ladder containing cands[start], adding at each
// step the candidate that maximizes the objective (ties to the lowest
// candidate index — fully deterministic).
func greedyFrom(cands []media.Bps, start, k int, samples []media.Bps, ref float64) []media.Bps {
	chosen := map[int]bool{start: true}
	rungs := []media.Bps{cands[start]}
	for len(rungs) < k {
		bestIdx := -1
		bestScore := math.Inf(-1)
		for c := range cands {
			if chosen[c] {
				continue
			}
			trial := insertSorted(rungs, cands[c])
			if s := ladderScore(trial, samples, ref); s > bestScore {
				bestScore = s
				bestIdx = c
			}
		}
		chosen[bestIdx] = true
		rungs = insertSorted(rungs, cands[bestIdx])
	}
	return rungs
}

// insertSorted returns a fresh ascending slice with v inserted.
func insertSorted(rungs []media.Bps, v media.Bps) []media.Bps {
	i := sort.Search(len(rungs), func(i int) bool { return rungs[i] >= v })
	out := make([]media.Bps, 0, len(rungs)+1)
	out = append(out, rungs[:i]...)
	out = append(out, v)
	return append(out, rungs[i:]...)
}
