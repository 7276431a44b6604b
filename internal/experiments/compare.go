package experiments

import (
	"fmt"

	"demuxabr/internal/abr"
	"demuxabr/internal/abr/jointabr"
	"demuxabr/internal/core"
	"demuxabr/internal/media"
	"demuxabr/internal/runpool"
	"demuxabr/internal/trace"
)

// Scenario names one network condition from the paper's experiments, used
// to compare all players head-to-head.
type Scenario struct {
	// Name identifies the scenario.
	Name string
	// Content is the asset.
	Content *media.Content
	// Profile is the link condition.
	Profile trace.Profile
}

// Scenarios returns the paper's network conditions as head-to-head arenas.
func Scenarios() []Scenario {
	return []Scenario{
		{Name: "fixed-900k (Fig 2)", Content: media.DramaShow(), Profile: trace.Fig2Bandwidth()},
		{Name: "varying-avg-600k (Fig 3)", Content: media.DramaShow(), Profile: trace.Fig3VaryingAvg600()},
		{Name: "fixed-1M (Fig 4a)", Content: media.DramaShow(), Profile: trace.Fig4aBandwidth()},
		{Name: "bimodal-avg-600k (Fig 4b)", Content: media.DramaShow(), Profile: trace.Fig4bBimodal600()},
		{Name: "fixed-700k (Fig 5)", Content: media.DramaShow(), Profile: trace.Fig5Bandwidth()},
	}
}

// modelSpec is a deferred player-model construction: the manifest parsing
// is done once, the (stateful) model is built per session. Fleet runners
// hand each runpool job its own build() call so sessions never share
// mutable model state; the ABR constructors copy the combo/ladder slices
// they sort, so sharing the parsed inputs across concurrent builds is
// safe.
type modelSpec struct {
	name  string
	build func() abr.Algorithm
}

// modelSpecs parses the manifests for a content asset once per player
// model and returns one constructor per model, in the fixed comparison
// order, plus the allowed combination list (H_sub as parsed from the master
// playlist, which lists A3 first as in Fig. 3).
func modelSpecs(c *media.Content) (specs []modelSpec, allowed []media.Combo, err error) {
	mo := core.ManifestOptions{AudioOrder: []*media.Track{c.AudioTracks[2], c.AudioTracks[1], c.AudioTracks[0]}}
	return kindSpecs(c, mo, core.ExoPlayerDASH, core.ExoPlayerHLS, core.Shaka, core.DashJS, core.BestPractice, core.BolaJoint, core.MPCJoint, core.DynamicJoint)
}

// kindSpecs parses the manifest each player kind reads and returns one
// constructor per kind, named after it, plus the combination list of the
// first HLS parse.
func kindSpecs(c *media.Content, mo core.ManifestOptions, kinds ...core.PlayerKind) (specs []modelSpec, allowed []media.Combo, err error) {
	for _, kind := range kinds {
		m, err := core.ParseManifest(kind, c, mo)
		if err != nil {
			return nil, nil, err
		}
		if allowed == nil {
			allowed = m.Allowed()
		}
		specs = append(specs, modelSpec{string(kind), m.NewModel})
	}
	return specs, allowed, nil
}

// buildModels constructs every player model for a content asset, each from
// the manifest a real deployment would give it: ExoPlayer-DASH and dash.js
// from the MPD; ExoPlayer-HLS, Shaka and the best-practice player from the
// H_sub master playlist (A3 listed first, as in Fig. 3).
func buildModels(c *media.Content) (models []abr.Algorithm, allowed []media.Combo, err error) {
	specs, allowed, err := modelSpecs(c)
	if err != nil {
		return nil, nil, err
	}
	models = make([]abr.Algorithm, len(specs))
	for i, sp := range specs {
		models[i] = sp.build()
	}
	return models, allowed, nil
}

// Compare runs every player model (the three studied players plus the
// best-practice design) under one scenario with the given worker count
// (0 = GOMAXPROCS, 1 = serial). Each model plays its session on its own
// engine; outcomes keep the fixed comparison order.
func Compare(s Scenario, parallel int) ([]Outcome, error) {
	specs, allowed, err := modelSpecs(s.Content)
	if err != nil {
		return nil, err
	}
	return runpool.Map(parallel, len(specs), func(i int) (Outcome, error) {
		out, err := playToEnd(core.Spec{Content: s.Content, Profile: s.Profile, Model: specs[i].build(), Manifest: core.ManifestOptions{Combos: allowed}})
		if err != nil {
			return Outcome{}, fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		return out, nil
	})
}

// AblationVariant names one best-practice design choice switched off.
type AblationVariant struct {
	Name  string
	Model abr.Algorithm
}

// ablationSpecs returns deferred constructors for the best-practice player
// and its ablations:
//
//   - full: all four §4 practices;
//   - no-allowed-list: adapts over all 18 combinations (practice 2 off);
//   - separate-estimators: per-type estimates summed (practice 3, shared
//     estimator clause, off);
//   - no-damping: no switch hysteresis (practice 3, stability clause, off);
//   - independent-scheduling: free-running per-type downloads (practice 4
//     off).
func ablationSpecs(c *media.Content) []modelSpec {
	hsub := abr.NewAllowed(media.HSub(c))
	hall := abr.NewAllowed(media.HAll(c))
	return []modelSpec{
		{"full", func() abr.Algorithm { return jointabr.New(hsub) }},
		{"no-allowed-list", func() abr.Algorithm { return jointabr.New(hall) }},
		{"separate-estimators", func() abr.Algorithm { return jointabr.New(hsub, jointabr.WithSeparateEstimators()) }},
		{"no-damping", func() abr.Algorithm { return jointabr.New(hsub, jointabr.WithoutDamping()) }},
		{"independent-scheduling", func() abr.Algorithm { return jointabr.NewIndependent(hsub) }},
	}
}

// AblationVariants builds the best-practice player and its ablations for a
// content asset.
func AblationVariants(c *media.Content) []AblationVariant {
	specs := ablationSpecs(c)
	out := make([]AblationVariant, len(specs))
	for i, sp := range specs {
		out[i] = AblationVariant{Name: sp.name, Model: sp.build()}
	}
	return out
}

// Ablate runs the best-practice player and all ablations under a scenario
// with the given worker count (0 = GOMAXPROCS, 1 = serial).
func Ablate(s Scenario, parallel int) (map[string]Outcome, error) {
	allowed := media.HSub(s.Content)
	specs := ablationSpecs(s.Content)
	outs, err := runpool.Map(parallel, len(specs), func(i int) (Outcome, error) {
		o, err := playToEnd(core.Spec{Content: s.Content, Profile: s.Profile, Model: specs[i].build(), Manifest: core.ManifestOptions{Combos: allowed}})
		if err != nil {
			return Outcome{}, fmt.Errorf("ablation %s: %w", specs[i].name, err)
		}
		return o, nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]Outcome, len(outs))
	for i, o := range outs {
		out[specs[i].name] = o
	}
	return out, nil
}
