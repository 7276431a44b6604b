package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"demuxabr/internal/media"
	"demuxabr/internal/trace"
)

// These tests assert the paper's findings end-to-end: manifests are
// generated and re-parsed, player models run in the simulator, and the
// figures' qualitative results must emerge.

func TestFig2aReproduces(t *testing.T) {
	r, err := Fig2a()
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Dominant.String(); got != "V3+B2" {
		t.Errorf("dominant combo = %s, want V3+B2", got)
	}
	if !r.BetterFits {
		t.Error("V3+B3 must fit within the 900 Kbps link (declared 601 Kbps)")
	}
	if r.BetterPredetermined {
		t.Error("V3+B3 must NOT be predetermined — that is the finding")
	}
	if r.Outcome.Metrics.StallCount != 0 {
		t.Errorf("unexpected stalls: %d", r.Outcome.Metrics.StallCount)
	}
}

func TestFig2bReproduces(t *testing.T) {
	r, err := Fig2b()
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Dominant.String(); got != "V2+C2" {
		t.Errorf("dominant combo = %s, want V2+C2 (low video + high audio)", got)
	}
	if !r.BetterFits || r.BetterPredetermined {
		t.Errorf("V3+C1 should fit (%v) and be excluded (%v)", r.BetterFits, r.BetterPredetermined)
	}
}

func TestFig3Reproduces(t *testing.T) {
	r, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if r.FixedAudio != "A3" {
		t.Errorf("fixed audio = %s, want A3 (first listed)", r.FixedAudio)
	}
	if r.AudioTrackChanges != 0 {
		t.Errorf("audio switches = %d, want 0 (no audio adaptation)", r.AudioTrackChanges)
	}
	if r.Outcome.Metrics.StallCount < 2 {
		t.Errorf("stalls = %d, want several (paper: 5)", r.Outcome.Metrics.StallCount)
	}
	if r.Outcome.Metrics.RebufferTime < 10*time.Second {
		t.Errorf("rebuffer = %v, want substantial (paper: 36.9 s)", r.Outcome.Metrics.RebufferTime)
	}
	if r.OffManifestChunks == 0 {
		t.Error("expected off-manifest combinations (e.g. V1+A3 / V2+A3)")
	}
}

func TestExoHLSLowFirstReproduces(t *testing.T) {
	r, err := ExoHLSLowFirst()
	if err != nil {
		t.Fatal(err)
	}
	if r.FixedAudio != "A1" {
		t.Errorf("fixed audio = %s, want A1", r.FixedAudio)
	}
	if r.AudioTrackChanges != 0 {
		t.Errorf("audio switches = %d, want 0", r.AudioTrackChanges)
	}
	if r.Outcome.Metrics.StallCount != 0 {
		t.Errorf("stalls = %d, want 0 at 5 Mbps", r.Outcome.Metrics.StallCount)
	}
	// Despite 5 Mbps, audio QoE is the floor: the A1 average bitrate.
	if r.Outcome.Metrics.AvgAudioBitrate != media.Kbps(128) {
		t.Errorf("avg audio = %v, want 128 Kbps (pinned A1)", r.Outcome.Metrics.AvgAudioBitrate)
	}
}

func TestFig4aReproduces(t *testing.T) {
	r, err := Fig4a()
	if err != nil {
		t.Fatal(err)
	}
	if r.AnyValidSample {
		t.Error("no interval at 1 Mbps may pass the 16 KB filter")
	}
	if r.EstimateEnd != media.Kbps(500) {
		t.Errorf("final estimate = %v, want the stuck 500 Kbps default", r.EstimateEnd)
	}
	if got := r.Dominant.String(); got != "V2+A2" {
		t.Errorf("dominant combo = %s, want V2+A2", got)
	}
	if r.Outcome.Metrics.StallCount != 0 {
		t.Errorf("stalls = %d, want 0 (V2+A2 under 1 Mbps)", r.Outcome.Metrics.StallCount)
	}
}

func TestFig4bReproduces(t *testing.T) {
	r, err := Fig4b()
	if err != nil {
		t.Fatal(err)
	}
	if !r.AnyValidSample {
		t.Fatal("high-phase intervals must pass the filter")
	}
	if r.EstimateEnd < media.Kbps(1000) {
		t.Errorf("final estimate = %v, want ~1.1 Mbps (overestimation of a 600 Kbps-average link)", r.EstimateEnd)
	}
	// The paper's selection sequence: V2+A2 under the default estimate,
	// then V3+A3 under the overestimate.
	if got := DominantCombo(r.Outcome.Result).String(); got != "V3+A3" {
		t.Errorf("dominant combo = %s, want V3+A3", got)
	}
	if r.Outcome.Metrics.RebufferTime < 15*time.Second {
		t.Errorf("rebuffer = %v, want heavy (paper: 39 s)", r.Outcome.Metrics.RebufferTime)
	}
	// The selection must climb beyond what the link sustains (paper: V3+A3).
	climbed := false
	for _, cb := range r.Outcome.Result.CombosSelected() {
		if cb.PeakBitrate() >= media.Kbps(1000) {
			climbed = true
		}
	}
	if !climbed {
		t.Error("expected selections beyond 1 Mbps peak under overestimation")
	}
}

func TestFig5Reproduces(t *testing.T) {
	r, err := Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Combos) < 3 {
		t.Errorf("distinct combos = %d (%v), want fluctuation across >= 3", len(r.Combos), r.Combos)
	}
	if len(r.UndesirablePairings) == 0 {
		t.Errorf("expected undesirable pairings (e.g. V2+A3); got combos %v", r.Combos)
	}
	if r.MaxImbalance < 5*time.Second {
		t.Errorf("max buffer imbalance = %v, want > 5 s (Fig 5(b))", r.MaxImbalance)
	}
}

// TestFigureTimelinesKept: the figure experiments keep the per-sample log
// that their charts, CSVs and estimate series read.
func TestFigureTimelinesKept(t *testing.T) {
	fig3, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig3.Outcome.Result.Timeline) == 0 {
		t.Error("Fig. 3 kept no timeline")
	}
	fig5, err := Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig5.Outcome.Result.Timeline) == 0 {
		t.Error("Fig. 5 kept no timeline")
	}
	for i, fig := range []func() (Fig4Result, error){Fig4a, Fig4b} {
		r, err := fig()
		if err != nil {
			t.Fatal(err)
		}
		if r.EstimateStart == 0 || r.EstimateEnd == 0 {
			t.Errorf("Fig. 4(%c) estimate series start %v end %v: want both non-zero", 'a'+i, r.EstimateStart, r.EstimateEnd)
		}
	}
}

func TestBestPracticeWinsOnPaperScenarios(t *testing.T) {
	for _, s := range Scenarios() {
		t.Run(s.Name, func(t *testing.T) {
			outcomes, err := Compare(s, 0)
			if err != nil {
				t.Fatal(err)
			}
			byName := map[string]Outcome{}
			for _, o := range outcomes {
				byName[o.Model] = o
			}
			bp, ok := byName["bestpractice"]
			if !ok {
				t.Fatal("bestpractice outcome missing")
			}
			// Best practice never leaves the allowed list and keeps buffers
			// balanced to chunk granularity.
			if bp.Metrics.OffManifest != 0 {
				t.Errorf("bestpractice off-manifest = %d, want 0", bp.Metrics.OffManifest)
			}
			if bp.Metrics.MaxImbalance > media.DramaChunkDuration+time.Second {
				t.Errorf("bestpractice imbalance = %v, want <= one chunk", bp.Metrics.MaxImbalance)
			}
			// And it must not be the worst QoE in any paper scenario.
			worst := true
			for name, o := range byName {
				if name != "bestpractice" && o.Metrics.Score >= bp.Metrics.Score {
					worst = worst && true
				} else if name != "bestpractice" {
					worst = false
				}
			}
			if worst && len(byName) > 1 {
				t.Errorf("bestpractice has the worst QoE (%.2f) in %s", bp.Metrics.Score, s.Name)
			}
		})
	}
}

func TestAblationsQuantifyDesignChoices(t *testing.T) {
	// Use the dash.js scenario (tight fixed link) where scheduling and
	// estimation choices matter most.
	s := Scenario{Name: "fixed-700k", Content: media.DramaShow(), Profile: Scenarios()[4].Profile}
	out, err := Ablate(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	full := out["full"]
	if ind, ok := out["independent-scheduling"]; ok {
		if ind.Metrics.MaxImbalance <= full.Metrics.MaxImbalance {
			t.Errorf("independent scheduling imbalance %v <= synced %v",
				ind.Metrics.MaxImbalance, full.Metrics.MaxImbalance)
		}
	} else {
		t.Error("missing independent-scheduling ablation")
	}
	if nal, ok := out["no-allowed-list"]; ok {
		// Without the allowed list the player may stream pairings outside
		// H_sub (counted as off-manifest against H_sub).
		if full.Metrics.OffManifest != 0 {
			t.Errorf("full off-manifest = %d, want 0", full.Metrics.OffManifest)
		}
		_ = nal
	}
	for name, o := range out {
		if !o.Result.Ended {
			t.Errorf("%s did not finish", name)
		}
	}
}

func TestPrintersProduceTables(t *testing.T) {
	c := media.DramaShow()
	var buf bytes.Buffer
	PrintTable1(&buf, c)
	if !strings.Contains(buf.String(), "V6") || !strings.Contains(buf.String(), "1080p") {
		t.Errorf("Table 1 output missing rows:\n%s", buf.String())
	}
	buf.Reset()
	PrintComboTable(&buf, "Table 2", media.HAll(c))
	if !strings.Contains(buf.String(), "V6+A3") {
		t.Errorf("Table 2 output missing rows:\n%s", buf.String())
	}
	buf.Reset()
	outcomes, err := Compare(Scenarios()[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	PrintOutcomes(&buf, "Comparison", outcomes)
	if !strings.Contains(buf.String(), "bestpractice") {
		t.Errorf("comparison output missing models:\n%s", buf.String())
	}
}

func TestBandwidthSweepShapes(t *testing.T) {
	points, err := BandwidthSweep([]float64{400, 1300, 4500}, 0)
	if err != nil {
		t.Fatal(err)
	}
	byModel := map[string]map[float64]Outcome{}
	for _, p := range points {
		if byModel[p.Outcome.Model] == nil {
			byModel[p.Outcome.Model] = map[float64]Outcome{}
		}
		byModel[p.Outcome.Model][p.Kbps] = p.Outcome
	}
	for model, cells := range byModel {
		// More bandwidth must never hurt the selected video quality much:
		// the 4500 Kbps run must reach at least the 400 Kbps run's quality.
		if cells[4500].Metrics.AvgVideoBitrate < cells[400].Metrics.AvgVideoBitrate {
			t.Errorf("%s: video quality decreased with 11x the bandwidth", model)
		}
		// At 4.5 Mbps (1.4x the top combination) nobody should rebuffer
		// for long.
		if cells[4500].Metrics.RebufferTime > 10*time.Second {
			t.Errorf("%s: %.1fs rebuffer at 4.5 Mbps", model, cells[4500].Metrics.RebufferTime.Seconds())
		}
	}
	var buf bytes.Buffer
	PrintSweep(&buf, points)
	if !strings.Contains(buf.String(), "QoE score") || !strings.Contains(buf.String(), "bola-joint") {
		t.Errorf("sweep output incomplete:\n%s", buf.String())
	}
}

func TestFig3RepairedFixesThePathology(t *testing.T) {
	r, err := Fig3Repaired()
	if err != nil {
		t.Fatal(err)
	}
	if r.RecoveredBitrateErr > 0.05 {
		t.Errorf("media-playlist bitrate recovery error = %.3f, want < 5%%", r.RecoveredBitrateErr)
	}
	// The broken player pins audio; the repaired one adapts it.
	if r.Broken.Metrics.AudioSwitches != 0 {
		t.Errorf("broken player audio switches = %d, want 0", r.Broken.Metrics.AudioSwitches)
	}
	if r.Repaired.Metrics.AudioSwitches == 0 &&
		r.Repaired.Metrics.AvgAudioBitrate == media.Kbps(384) {
		t.Error("repaired player still pins A3")
	}
	// The repaired player stays on the manifest and rebuffers less.
	if r.Repaired.Metrics.OffManifest != 0 {
		t.Errorf("repaired off-manifest = %d, want 0", r.Repaired.Metrics.OffManifest)
	}
	if r.Repaired.Metrics.RebufferTime >= r.Broken.Metrics.RebufferTime {
		t.Errorf("repaired rebuffer %v >= broken %v",
			r.Repaired.Metrics.RebufferTime, r.Broken.Metrics.RebufferTime)
	}
}

func TestSplitPathNeedsPerPathBudgets(t *testing.T) {
	r, err := SplitPath()
	if err != nil {
		t.Fatal(err)
	}
	// The aggregate estimate collapses toward the slow audio path,
	// starving the 4 Mbps video path at the bottom rungs.
	if r.Shared.Metrics.AvgVideoBitrate > media.Kbps(250) {
		t.Errorf("shared-budget avg video = %v; expected starvation near V1/V2",
			r.Shared.Metrics.AvgVideoBitrate)
	}
	// The path-aware player exploits the fast video path while keeping
	// audio within its own path (<= A2; 250 Kbps cannot carry A3).
	if r.PathAware.Metrics.AvgVideoBitrate < 2*r.Shared.Metrics.AvgVideoBitrate {
		t.Errorf("path-aware video %v not well above shared %v",
			r.PathAware.Metrics.AvgVideoBitrate, r.Shared.Metrics.AvgVideoBitrate)
	}
	if r.PathAware.Metrics.AvgAudioBitrate > media.Kbps(200) {
		t.Errorf("path-aware avg audio = %v, want <= A2", r.PathAware.Metrics.AvgAudioBitrate)
	}
	// Neither run may trade the quality difference for rebuffering.
	if r.PathAware.Metrics.RebufferTime > 5*time.Second {
		t.Errorf("path-aware rebuffer = %v", r.PathAware.Metrics.RebufferTime)
	}
	if r.PathAware.Metrics.Score <= r.Shared.Metrics.Score {
		t.Errorf("path-aware QoE %.2f <= shared %.2f",
			r.PathAware.Metrics.Score, r.Shared.Metrics.Score)
	}
}

func TestSyncGranularity(t *testing.T) {
	points, err := SyncGranularity([]int{0, 1, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("points = %d", len(points))
	}
	// Imbalance grows (weakly) with the window; strict pairing stays within
	// one chunk.
	if points[0].Outcome.Metrics.MaxImbalance > media.DramaChunkDuration+time.Second {
		t.Errorf("strict pairing imbalance = %v", points[0].Outcome.Metrics.MaxImbalance)
	}
	if points[3].Outcome.Metrics.MaxImbalance < points[0].Outcome.Metrics.MaxImbalance {
		t.Errorf("imbalance did not grow with window: %v vs %v",
			points[3].Outcome.Metrics.MaxImbalance, points[0].Outcome.Metrics.MaxImbalance)
	}
	for _, p := range points {
		if !p.Outcome.Result.Ended {
			t.Errorf("window %d did not finish", p.Window)
		}
	}
}

func TestContentCuration(t *testing.T) {
	results, err := ContentCuration()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	music, action := results[0], results[1]
	// Music show: curation must raise audio quality.
	if music.Curated.Metrics.AvgAudioBitrate <= music.Generic.Metrics.AvgAudioBitrate {
		t.Errorf("music curation audio %v <= generic %v",
			music.Curated.Metrics.AvgAudioBitrate, music.Generic.Metrics.AvgAudioBitrate)
	}
	// Action movie: curation must raise video quality.
	if action.Curated.Metrics.AvgVideoBitrate <= action.Generic.Metrics.AvgVideoBitrate {
		t.Errorf("action curation video %v <= generic %v",
			action.Curated.Metrics.AvgVideoBitrate, action.Generic.Metrics.AvgVideoBitrate)
	}
	// Under content-appropriate QoE weights, curation must win both times.
	for _, r := range results {
		if r.Curated.Metrics.Score <= r.Generic.Metrics.Score {
			t.Errorf("%s: curated QoE %.2f <= generic %.2f",
				r.Content, r.Curated.Metrics.Score, r.Generic.Metrics.Score)
		}
		if r.Curated.Metrics.OffManifest != 0 {
			t.Errorf("%s: curated off-manifest = %d", r.Content, r.Curated.Metrics.OffManifest)
		}
	}
}

func TestChunkDurationSweep(t *testing.T) {
	points, err := ChunkDurationSweep([]float64{2, 5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	// Longer chunks raise the startup delay (the first pair is bigger).
	if points[2].Outcome.Metrics.StartupDelay <= points[0].Outcome.Metrics.StartupDelay {
		t.Errorf("startup should grow with chunk duration: %v (10s) vs %v (2s)",
			points[2].Outcome.Metrics.StartupDelay, points[0].Outcome.Metrics.StartupDelay)
	}
	// Short chunks pay the RTT tax: effective video quality at 2 s chunks
	// must not exceed the 5 s configuration's.
	if points[0].Outcome.Metrics.AvgVideoBitrate > points[1].Outcome.Metrics.AvgVideoBitrate {
		t.Errorf("2s chunks out-deliver 5s despite the RTT tax: %v vs %v",
			points[0].Outcome.Metrics.AvgVideoBitrate, points[1].Outcome.Metrics.AvgVideoBitrate)
	}
	for _, p := range points {
		if !p.Outcome.Result.Ended || p.Outcome.Metrics.StallCount > 2 {
			t.Errorf("%gs chunks: ended=%v stalls=%d", p.ChunkSeconds,
				p.Outcome.Result.Ended, p.Outcome.Metrics.StallCount)
		}
	}
}

func TestCrossTrafficAdaptation(t *testing.T) {
	results, err := CrossTraffic()
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range results {
		if r.BeforeKbps == 0 || r.DuringKbps == 0 {
			t.Errorf("%s: missing window averages (%v/%v)", name, r.BeforeKbps, r.DuringKbps)
			continue
		}
		if name == "shaka" {
			// Shaka is structurally blind here: a 625 Kbps share moves
			// under 16 KB per 0.125 s interval, so no sample passes its
			// filter and the stale estimate keeps the old bitrate — the
			// Fig 4(a) root cause resurfacing under contention.
			if r.DuringKbps < r.BeforeKbps {
				t.Errorf("shaka shed bitrate (%.0f -> %.0f) although its filter sees no samples",
					r.BeforeKbps, r.DuringKbps)
			}
			if r.Outcome.Metrics.RebufferTime == 0 {
				t.Error("blind shaka should pay in rebuffering")
			}
			continue
		}
		// Every other player must shed video bitrate while the competing
		// flow squeezes its share.
		if r.DuringKbps >= r.BeforeKbps {
			t.Errorf("%s: did not shed bitrate under cross traffic (%.0f -> %.0f Kbps)",
				name, r.BeforeKbps, r.DuringKbps)
		}
	}
	bp, ok := results["bestpractice"]
	if !ok {
		t.Fatal("bestpractice missing")
	}
	if bp.Outcome.Metrics.RebufferTime > 10*time.Second {
		t.Errorf("bestpractice rebuffer under cross traffic = %v", bp.Outcome.Metrics.RebufferTime)
	}
}

func TestMuxedBaseline(t *testing.T) {
	r, err := MuxedBaseline()
	if err != nil {
		t.Fatal(err)
	}
	// Muxed packaging structurally eliminates imbalance.
	if r.Muxed.Metrics.MaxImbalance != 0 {
		t.Errorf("muxed imbalance = %v, want 0", r.Muxed.Metrics.MaxImbalance)
	}
	if r.Demuxed.Metrics.MaxImbalance == 0 {
		t.Error("demuxed imbalance unexpectedly zero (in-flight skew should show)")
	}
	// But it costs storage even for the curated H_sub packaging (audio
	// duplicated per pairing; the full H_all blowup is 3.3x, covered by
	// the cdnsim tests).
	if r.StorageRatio <= 1.05 {
		t.Errorf("storage ratio = %.2f, want > 1.05", r.StorageRatio)
	}
	// QoE must be in the same ballpark (packaging, not adaptation, differs).
	diff := r.Muxed.Metrics.Score - r.Demuxed.Metrics.Score
	if diff < -30 || diff > 30 {
		t.Errorf("packaging changed QoE wildly: muxed %.2f vs demuxed %.2f",
			r.Muxed.Metrics.Score, r.Demuxed.Metrics.Score)
	}
}

func TestVerifyAllPasses(t *testing.T) {
	checks, err := VerifyAll()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if failures := PrintChecks(&buf, checks); failures != 0 {
		t.Errorf("%d paper checks failed:\n%s", failures, buf.String())
	}
	if len(checks) < 10 {
		t.Errorf("only %d checks; expected full coverage", len(checks))
	}
}

func TestLanguageSwitch(t *testing.T) {
	r, err := LanguageSwitch()
	if err != nil {
		t.Fatal(err)
	}
	// After the switch, audio must come from the Spanish ladder.
	finalAudio := ""
	for _, ch := range r.Demuxed.Result.ChunksOf(media.Audio) {
		finalAudio = ch.Track.Language
	}
	if finalAudio != "es" {
		t.Errorf("final demuxed audio language = %q, want es", finalAudio)
	}
	// Demuxed discards only audio; muxed throws the video away too.
	if r.DemuxedDiscarded == 0 || r.MuxedDiscarded == 0 {
		t.Fatalf("discard accounting missing: demuxed=%d muxed=%d",
			r.DemuxedDiscarded, r.MuxedDiscarded)
	}
	if r.MuxedDiscarded < 2*r.DemuxedDiscarded {
		t.Errorf("muxed switch should waste far more: demuxed=%d muxed=%d",
			r.DemuxedDiscarded, r.MuxedDiscarded)
	}
	for name, o := range map[string]Outcome{"demuxed": r.Demuxed, "muxed": r.Muxed} {
		if !o.Result.Ended {
			t.Errorf("%s did not finish", name)
		}
		if len(o.Result.AudioResets) != 1 {
			t.Errorf("%s: %d resets recorded, want 1", name, len(o.Result.AudioResets))
		}
	}
}

func TestSeedSweep(t *testing.T) {
	summaries, err := SeedSweep(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(summaries) < 6 {
		t.Fatalf("models = %d", len(summaries))
	}
	byName := map[string]SeedSummary{}
	for _, s := range summaries {
		if s.QoE.N != 5 {
			t.Errorf("%s: %d samples, want 5", s.Model, s.QoE.N)
		}
		if s.QoE.Min > s.QoE.Max {
			t.Errorf("%s: inverted summary %+v", s.Model, s.QoE)
		}
		byName[s.Model] = s
	}
	// Determinism: repeating the sweep reproduces the summaries exactly.
	again, err := SeedSweep(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range again {
		if byName[s.Model].QoE != s.QoE {
			t.Errorf("%s: sweep not deterministic (%+v vs %+v)", s.Model, byName[s.Model].QoE, s.QoE)
		}
	}
	// Across the seed distribution the best-practice median must beat
	// dash.js's (the churn penalty is structural, not trace luck).
	if byName["bestpractice"].QoE.Median <= byName["dashjs"].QoE.Median {
		t.Errorf("bestpractice median %.2f <= dashjs %.2f",
			byName["bestpractice"].QoE.Median, byName["dashjs"].QoE.Median)
	}
}

func TestStartupDelays(t *testing.T) {
	points, err := StartupDelays(900, 0)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]time.Duration{}
	for _, p := range points {
		if p.StartupDelay <= 0 || p.StartupDelay > 20*time.Second {
			t.Errorf("%s: startup %v out of band", p.Model, p.StartupDelay)
		}
		byName[p.Model] = p.StartupDelay
	}
	// Conservative starters (lowest combo first) must start faster than
	// ExoPlayer's 1 Mbps-initial-estimate mid-ladder start on a 900 Kbps
	// link.
	if byName["bestpractice"] >= byName["exoplayer-dash"] {
		t.Errorf("bestpractice startup %v >= exoplayer-dash %v",
			byName["bestpractice"], byName["exoplayer-dash"])
	}
}

func TestFig4aEstimateSeriesIsFlat(t *testing.T) {
	// The defining visual of Fig 4(a): the estimate line never moves.
	r, err := Fig4a()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Outcome.Result.Timeline) == 0 {
		t.Fatal("no timeline samples to check")
	}
	for i, p := range r.Outcome.Result.Timeline {
		if p.Estimate != media.Kbps(500) {
			t.Fatalf("estimate at sample %d (%v) = %v, want a flat 500 Kbps line",
				i, p.At, p.Estimate)
		}
	}
}

func TestFig3StallsAlignWithLowPhases(t *testing.T) {
	// The Fig 3(b) shading: every stall must begin inside (or at the edge
	// of) a low-bandwidth phase of the trace.
	r, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	profile := trace.Fig3VaryingAvg600()
	for _, st := range r.Outcome.Result.Stalls {
		if rate := profile.RateAt(st.Start); rate > media.Kbps(200) {
			t.Errorf("stall at %v began under %v of bandwidth — not a low phase", st.Start, rate)
		}
	}
	if len(r.Outcome.Result.Stalls) == 0 {
		t.Fatal("no stalls to check")
	}
}

func TestFig4bEstimateRisesMonotonicallyAfterWarmup(t *testing.T) {
	// Fig 4(b)'s shape: once samples pass the filter the estimate climbs
	// from the default toward the high phase and never falls back below it
	// (the low phase contributes no samples to pull it down).
	r, err := Fig4b()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Outcome.Result.Timeline) == 0 {
		t.Fatal("no timeline samples to check")
	}
	seenAboveDefault := false
	for _, p := range r.Outcome.Result.Timeline {
		if p.Estimate > media.Kbps(500) {
			seenAboveDefault = true
		}
		if seenAboveDefault && p.Estimate < media.Kbps(500) {
			t.Fatalf("estimate fell back below the default at %v: %v", p.At, p.Estimate)
		}
	}
	if !seenAboveDefault {
		t.Fatal("estimate never left the default")
	}
}

func TestSafetyFactorSweep(t *testing.T) {
	points, err := SafetyFactorSweep([]float64{0.6, 0.8, 0.95}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	// The frontier: quality non-decreasing in the factor, rebuffering
	// risk non-decreasing too (weakly, on this trace).
	if points[0].Outcome.Metrics.AvgVideoBitrate > points[2].Outcome.Metrics.AvgVideoBitrate {
		t.Errorf("quality decreased with a larger factor: %v vs %v",
			points[0].Outcome.Metrics.AvgVideoBitrate, points[2].Outcome.Metrics.AvgVideoBitrate)
	}
	if points[0].Outcome.Metrics.RebufferTime > points[2].Outcome.Metrics.RebufferTime+10*time.Second {
		t.Errorf("rebuffering not ordered: %.1f vs %.1f",
			points[0].Outcome.Metrics.RebufferTime.Seconds(), points[2].Outcome.Metrics.RebufferTime.Seconds())
	}
}
