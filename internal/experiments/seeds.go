package experiments

import (
	"fmt"
	"time"

	"demuxabr/internal/abr"
	"demuxabr/internal/abr/jointabr"
	"demuxabr/internal/core"
	"demuxabr/internal/media"
	"demuxabr/internal/qoe"
	"demuxabr/internal/runpool"
	"demuxabr/internal/stats"
	"demuxabr/internal/trace"
)

// SeedSummary aggregates one player's outcomes across many random network
// traces — the distributional view a single-trace comparison lacks.
type SeedSummary struct {
	Model     string
	QoE       stats.Summary
	Rebuffer  stats.Summary // seconds
	VideoKbps stats.Summary
}

// SeedSweep runs every player model over n seeded random-walk traces
// (400–2500 Kbps, 4 s re-draws) and summarizes the distributions, with the
// given worker count (0 = GOMAXPROCS, 1 = serial). Every (seed, model) pair
// is one deterministic job with its own engine and its own trace rebuilt
// from the seed; the per-model sample vectors are then accumulated in
// submission order (seeds outer, models inner), so the summaries are the
// same at any worker count.
func SeedSweep(n, parallel int) ([]SeedSummary, error) {
	if n <= 0 {
		n = 10
	}
	content := media.DramaShow()
	specs, allowed, err := modelSpecs(content)
	if err != nil {
		return nil, err
	}
	mets, err := runpool.Map(parallel, n*len(specs), func(i int) (qoe.Metrics, error) {
		seed, mi := i/len(specs), i%len(specs)
		// The random walk is a pure function of the seed, so rebuilding it
		// per job reproduces the shared-profile serial sweep bit-for-bit.
		profile := trace.RandomWalk(int64(seed)+1, media.Kbps(400), media.Kbps(2500), 4*time.Second, time.Minute)
		out, err := playToEnd(core.Spec{Content: content, Profile: profile, Model: specs[mi].build(), Manifest: core.ManifestOptions{Combos: allowed}})
		if err != nil {
			return qoe.Metrics{}, fmt.Errorf("seed %d: %w", seed, err)
		}
		return out.Metrics, nil
	})
	if err != nil {
		return nil, err
	}
	acc := make([]struct{ qoe, rebuffer, video []float64 }, len(specs))
	for i, met := range mets {
		a := &acc[i%len(specs)]
		a.qoe = append(a.qoe, met.Score)
		a.rebuffer = append(a.rebuffer, met.RebufferTime.Seconds())
		a.video = append(a.video, met.AvgVideoBitrate.Kbps())
	}
	out := make([]SeedSummary, 0, len(specs))
	for mi, sp := range specs {
		a := acc[mi]
		out = append(out, SeedSummary{
			Model:     sp.name,
			QoE:       stats.Summarize(a.qoe),
			Rebuffer:  stats.Summarize(a.rebuffer),
			VideoKbps: stats.Summarize(a.video),
		})
	}
	return out, nil
}

// StartupPoint records one player's time to first frame on a fixed link.
type StartupPoint struct {
	Model        string
	StartupDelay time.Duration
}

// StartupDelays measures time-to-first-frame for every player model at the
// given link rate, with the given worker count (0 = GOMAXPROCS, 1 =
// serial). Startup is dominated by the initial selection: models that
// start conservative (lowest combination) begin fastest; ExoPlayer's 1 Mbps
// initial estimate starts mid-ladder and pays for it on slow links.
func StartupDelays(kbps float64, parallel int) ([]StartupPoint, error) {
	content := media.DramaShow()
	specs, _, err := modelSpecs(content)
	if err != nil {
		return nil, err
	}
	return runpool.Map(parallel, len(specs), func(i int) (StartupPoint, error) {
		out, err := playToEnd(core.Spec{Content: content, Profile: trace.Fixed(media.Kbps(kbps)), Model: specs[i].build()})
		if err != nil {
			return StartupPoint{}, err
		}
		return StartupPoint{Model: out.Model, StartupDelay: out.Result.StartupDelay}, nil
	})
}

// ParetoPoint is one cell of the safety-factor sweep: how the §4 player's
// single most influential knob trades quality against rebuffering risk.
type ParetoPoint struct {
	SafetyFactor float64
	Outcome      Outcome
}

// SafetyFactorSweep runs the best-practice player across safety factors on
// the Fig 3 link — the frontier an operator picks an operating point from —
// with the given worker count (0 = GOMAXPROCS, 1 = serial). The master
// playlist round-trip is factor-independent and done once; each factor's
// session is one job.
func SafetyFactorSweep(factors []float64, parallel int) ([]ParetoPoint, error) {
	content := media.DramaShow()
	combos, _, err := core.RoundTripMaster(content, media.HSub(content), nil)
	if err != nil {
		return nil, err
	}
	allowed := abr.NewAllowed(combos)
	return runpool.Map(parallel, len(factors), func(i int) (ParetoPoint, error) {
		f := factors[i]
		out, err := playToEnd(core.Spec{
			Content:  content,
			Profile:  trace.Fig3VaryingAvg600(),
			Model:    jointabr.New(allowed, jointabr.WithSafetyFactor(f)),
			Manifest: core.ManifestOptions{Combos: combos},
		})
		if err != nil {
			return ParetoPoint{}, fmt.Errorf("safety factor %v: %w", f, err)
		}
		return ParetoPoint{SafetyFactor: f, Outcome: out}, nil
	})
}
