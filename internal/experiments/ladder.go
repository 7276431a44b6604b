package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"demuxabr/internal/core"
	"demuxabr/internal/media"
	"demuxabr/internal/runpool"
	"demuxabr/internal/shaping"
	"demuxabr/internal/trace"
)

// The Ladder experiment is the offline-chunking × online-ABR cross-product:
// one title is prepared three ways from the SAME scene-complexity signal —
// uniform chunks with the authored ladder, per-type shaped chunks with the
// authored ladder, and shaped chunks with the searched per-title ladder —
// then each preparation is streamed by the per-type players that can play
// misaligned A/V timelines. The link prices every request with an RTT, so
// the chunking decision (how many requests, where the scene spikes land)
// shows up in the session metrics, not just in the offline objective.

const (
	// LadderSeed drives the shaping pipeline (scene model, bandwidth
	// samples); one fixed seed keeps the whole family deterministic.
	LadderSeed = 21

	// LadderRTT prices each chunk request. Demuxed streaming doubles the
	// request count, which is exactly the tax content-aware chunking
	// amortizes with longer audio chunks and scene-snapped video chunks.
	LadderRTT = 100 * time.Millisecond

	// LadderKbps is the constrained link of the family: tight enough that
	// both the RTT tax and scene spikes move the QoE, with the DramaShow
	// ladder spanning the operating point.
	LadderKbps = 900
)

// ladderBaseSpec is the un-prepared title: the paper's drama asset as an
// encoding spec, before any chunking decision.
func ladderBaseSpec() media.ContentSpec {
	return media.ContentSpec{
		Name:          "drama-show",
		Duration:      media.DramaDuration,
		ChunkDuration: media.DramaChunkDuration,
		VideoTracks:   media.DramaVideoLadder(),
		AudioTracks:   media.DramaAudioLadder(),
		Model:         media.DefaultChunkModel(),
	}
}

// LadderVariant is one offline preparation of the title, with its player
// constructors built from the manifests that preparation produces.
type LadderVariant struct {
	// Name identifies the preparation: fixed-uniform, shaped-chunks,
	// shaped-ladder.
	Name string
	// Content is the synthesized asset.
	Content *media.Content
	// Allowed is the curated combination list parsed back from the
	// variant's master playlist.
	Allowed []media.Combo

	specs []modelSpec
}

// LadderCell is one cross-product entry: a preparation streamed by one
// player model.
type LadderCell struct {
	Variant string
	// Aligned records whether the preparation's A/V timelines share
	// boundaries (the shaped preparations misalign them on purpose).
	Aligned                  bool
	VideoChunks, AudioChunks int
	Outcome                  Outcome
}

// LadderVariants prepares the title three ways from one shaping run. All
// three synthesize chunk sizes from the same scene signal, so the variants
// differ only in the decision under study:
//
//   - fixed-uniform: nominal 5 s chunks, authored ladder — the baseline
//     every earlier experiment streams;
//   - shaped-chunks: the plan's per-type boundary tables, authored ladder —
//     isolates the chunking decision (directly comparable QoE);
//   - shaped-ladder: boundary tables plus the searched per-title ladder —
//     the full Segue-style preparation (its ladder differs, so compare its
//     bitrate/stall profile, not the utility-based score).
func LadderVariants() ([]LadderVariant, *shaping.Plan, error) {
	base := ladderBaseSpec()
	plan, err := shaping.Optimize(base, shaping.Config{Seed: LadderSeed, Workers: 1})
	if err != nil {
		return nil, nil, err
	}

	fixedSpec := plan.FixedSpec(base)

	chunksSpec := plan.FixedSpec(base)
	chunksSpec.Name = base.Name + "-shaped-chunks"
	chunksSpec.VideoChunks = plan.VideoChunks
	chunksSpec.AudioChunks = plan.AudioChunks

	fullSpec := plan.Spec(base)
	fullSpec.Name = base.Name + "-shaped-ladder"

	var variants []LadderVariant
	for _, v := range []struct {
		name string
		spec media.ContentSpec
	}{
		{"fixed-uniform", fixedSpec},
		{"shaped-chunks", chunksSpec},
		{"shaped-ladder", fullSpec},
	} {
		variant, err := newLadderVariant(v.name, v.spec)
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: ladder variant %s: %w", v.name, err)
		}
		variants = append(variants, variant)
	}
	return variants, plan, nil
}

// newLadderVariant synthesizes the content and round-trips its manifests
// into the per-type player constructors: dash.js from the MPD (whose
// SegmentTimeline declares the variable chunking), the best-practice
// independent scheduler from the H_sub master playlist. Joint and muxed
// models are deliberately absent — they require aligned timelines, which
// the shaped preparations give up on purpose.
func newLadderVariant(name string, spec media.ContentSpec) (LadderVariant, error) {
	c, err := media.NewContent(spec)
	if err != nil {
		return LadderVariant{}, err
	}
	specs, combos, err := kindSpecs(c, core.ManifestOptions{}, core.DashJS, core.BestPracticeIndependent)
	if err != nil {
		return LadderVariant{}, err
	}
	return LadderVariant{Name: name, Content: c, Allowed: combos, specs: specs}, nil
}

// LadderCross runs the full cross-product, each session over the family's
// constrained link with the per-request RTT applied. Cells keep
// variant-major order; output is identical at any worker count.
func LadderCross(parallel int) ([]LadderCell, *shaping.Plan, error) {
	variants, plan, err := LadderVariants()
	if err != nil {
		return nil, nil, err
	}
	type job struct{ v, m int }
	var jobs []job
	for i, v := range variants {
		for j := range v.specs {
			jobs = append(jobs, job{i, j})
		}
	}
	cells, err := runpool.Map(parallel, len(jobs), func(k int) (LadderCell, error) {
		v := variants[jobs[k].v]
		sp := v.specs[jobs[k].m]
		out, err := playToEnd(core.Spec{
			Content:  v.Content,
			Profile:  trace.Fixed(media.Kbps(LadderKbps)),
			Model:    sp.build(),
			Manifest: core.ManifestOptions{Combos: v.Allowed},
			RTT:      LadderRTT,
		})
		if err != nil {
			return LadderCell{}, fmt.Errorf("experiments: ladder %s/%s: %w", v.Name, sp.name, err)
		}
		return LadderCell{
			Variant:     v.Name,
			Aligned:     v.Content.Aligned(),
			VideoChunks: v.Content.NumChunksOf(media.Video),
			AudioChunks: v.Content.NumChunksOf(media.Audio),
			Outcome:     out,
		}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return cells, plan, nil
}

// PrintLadder renders the cross-product table plus the plan summary.
func PrintLadder(w io.Writer, cells []LadderCell, plan *shaping.Plan) {
	fmt.Fprintf(w, "Offline chunking x online ABR (%d Kbps, %v request RTT, shaping seed %d):\n",
		LadderKbps, LadderRTT, plan.Seed)
	fmt.Fprintf(w, "  plan: %d scenes; video %d chunks (cost %.2f), audio %d chunks (cost %.2f); ladder score %.3f\n",
		len(plan.Scenes), len(plan.VideoChunks), plan.VideoCost,
		len(plan.AudioChunks), plan.AudioCost, plan.LadderScore)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  Preparation\tAligned\tChunks (V+A)\tModel\tVideo\tStartup\tStalls\tRebuffer\tQoE")
	for _, cell := range cells {
		m := cell.Outcome.Metrics
		fmt.Fprintf(tw, "  %s\t%v\t%d+%d\t%s\t%.0fK\t%.2fs\t%d\t%.1fs\t%.2f\n",
			cell.Variant, cell.Aligned, cell.VideoChunks, cell.AudioChunks,
			cell.Outcome.Model, m.AvgVideoBitrate.Kbps(), m.StartupDelay.Seconds(),
			m.StallCount, m.RebufferTime.Seconds(), m.Score)
	}
	tw.Flush()
}
