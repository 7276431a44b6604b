// Package experiments defines one runner per table and figure of the
// paper's evaluation, wiring the full stack end-to-end: content synthesis →
// manifest generation and re-parsing → player model construction from the
// parsed manifest → discrete-event streaming session → QoE metrics.
//
// Every runner is deterministic; the benchmark harness (bench_test.go at
// the repository root) regenerates the paper's rows and series from these.
package experiments

import (
	"fmt"
	"slices"

	"demuxabr/internal/core"
	"demuxabr/internal/media"
	"demuxabr/internal/player"
	"demuxabr/internal/qoe"
)

// Outcome is one finished experiment session: the model name, the raw
// result, its QoE metrics and the server-declared combination list. It is
// core.Session, the type every session pipeline run returns.
type Outcome = core.Session

// playToEnd runs one session through core.Play and insists that it
// finished: outside the fault experiments, a session cut short is a broken
// run, not a measurement.
func playToEnd(spec core.Spec) (Outcome, error) {
	s, err := core.Play(spec)
	if err != nil {
		return Outcome{}, fmt.Errorf("experiments: %w", err)
	}
	if !s.Result.Ended {
		return Outcome{}, fmt.Errorf("experiments: %s: session did not finish", s.Model)
	}
	return *s, nil
}

// scoreFinished is playToEnd's tail for the few sessions wired by hand
// because they need player or link features core.Spec does not carry: it
// insists the session finished and scores it against allowed.
func scoreFinished(res *player.Result, model string, c *media.Content, allowed []media.Combo) (Outcome, error) {
	if !res.Ended {
		return Outcome{}, fmt.Errorf("experiments: %s: session did not finish", model)
	}
	return Outcome{
		Model:   model,
		Result:  res,
		Metrics: qoe.Compute(res, c, allowed, qoe.DefaultWeights()),
		Allowed: allowed,
	}, nil
}

// DominantCombo returns the combination selected for the most chunk
// positions; ties go to the lower name.
func DominantCombo(res *player.Result) media.Combo {
	sel := res.ByIndex()
	var combos []media.Combo
	var counts []int
	for i := range min(len(sel[media.Video]), len(sel[media.Audio])) {
		cb := media.Combo{Video: sel[media.Video][i], Audio: sel[media.Audio][i]}
		if cb.Video == nil || cb.Audio == nil {
			continue
		}
		k := slices.IndexFunc(combos, cb.SameTracks)
		if k < 0 {
			k = len(combos)
			combos = append(combos, cb)
			counts = append(counts, 0)
		}
		counts[k]++
	}
	var best media.Combo
	bestN := -1
	for k, cb := range combos {
		if counts[k] > bestN || (counts[k] == bestN && cb.String() < best.String()) {
			best, bestN = cb, counts[k]
		}
	}
	return best
}
