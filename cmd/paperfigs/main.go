// Command paperfigs regenerates every table and figure of the paper "ABR
// Streaming with Separate Audio and Video Tracks" (CoNEXT 2019) from the
// library's simulator, printing the paper's reported values next to the
// measured ones.
//
// Usage:
//
//	paperfigs [-only id] [-csv dir] [-parallel n]
//
// where id is one of: table1 table2 table3 fig2a fig2b fig3 fig4a fig4b
// fig5 compare ablate cdn sweep live ... fleet fleetscale. With -csv, figure
// timelines are written as CSV
// files into the directory for external plotting. -parallel sets the
// worker count for the fleet experiments (sweeps, comparisons, the CDN
// sweep); the default 0 means GOMAXPROCS, and -parallel 1 runs the exact
// serial path. Output is byte-identical at any worker count (see
// docs/PERFORMANCE.md, "The runpool and shard determinism contract").
// fleetscale runs one large sharded fleet of -fleet-n sessions
// (16-session contention cells, streaming sketch aggregation); e.g.
// `paperfigs -only fleetscale -fleet-n 100000`.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"demuxabr/internal/cdnsim"
	"demuxabr/internal/experiments"
	"demuxabr/internal/media"
	"demuxabr/internal/player"
	"demuxabr/internal/plot"
	"demuxabr/internal/timeline"
)

// parallelN is the worker count for fleet experiments; 0 = GOMAXPROCS.
var parallelN int

// fleetN is the session count for the fleetscale experiment.
var fleetN int

// timelineDir, when set, writes flight-recorder exports (currently the fig3
// walkthrough) into the directory.
var timelineDir string

func main() {
	// realMain carries the deferred profile flushes; os.Exit here would
	// skip them, so the exit code travels back as a return value.
	os.Exit(realMain())
}

func realMain() int {
	only := flag.String("only", "", "run a single experiment (table1..fig5, compare, ablate, cdn, transport, live, ladder, fleetscale)")
	csvDir := flag.String("csv", "", "write figure timelines as CSV into this directory")
	flag.IntVar(&parallelN, "parallel", 0, "fleet worker count (0 = GOMAXPROCS, 1 = serial)")
	flag.IntVar(&fleetN, "fleet-n", 1000, "fleet size for -only fleetscale (cells of 16 sessions, streaming aggregation)")
	flag.StringVar(&timelineDir, "timeline", "", "write flight-recorder timelines (JSONL + Chrome trace) into this directory")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "paperfigs:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "paperfigs:", err)
			f.Close()
			return 1
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		path := *memprofile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "paperfigs:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "paperfigs:", err)
			}
		}()
	}

	ran := 0
	for _, r := range runs {
		if *only != "" && *only != r.id {
			continue
		}
		fmt.Printf("\n===== %s =====\n", r.id)
		if err := r.fn(*csvDir); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.id, err)
			return 1
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *only)
		return 2
	}
	return 0
}

// runs lists every experiment family in the order a full run prints them.
var runs = []struct {
	id string
	fn func(csvDir string) error
}{
	{"table1", table1}, {"table2", table2}, {"table3", table3},
	{"fig2a", fig2a}, {"fig2b", fig2b}, {"fig3", fig3},
	{"fig4a", fig4a}, {"fig4b", fig4b}, {"fig5", fig5},
	{"compare", compare}, {"ablate", ablate}, {"cdn", cdn},
	{"sweep", sweep}, {"repair", repair}, {"splitpath", splitpath},
	{"curation", curation}, {"syncwindow", syncwindow},
	{"chunkdur", chunkdur}, {"crosstraffic", crosstraffic}, {"muxed", muxed},
	{"verify", verify}, {"language", language},
	{"seeds", seeds}, {"startup", startup}, {"pareto", pareto},
	{"resilience", resilience}, {"transport", transport},
	{"live", live}, {"ladder", ladder},
	{"fleet", fleet}, {"fleetscale", fleetscale},
}

func table1(string) error {
	experiments.PrintTable1(os.Stdout, media.DramaShow())
	return nil
}

func table2(string) error {
	experiments.PrintComboTable(os.Stdout, "Table 2: all 18 combinations (H_all)", media.HAll(media.DramaShow()))
	return nil
}

func table3(string) error {
	experiments.PrintComboTable(os.Stdout, "Table 3: curated subset (H_sub)", media.HSub(media.DramaShow()))
	return nil
}

func writeTimeline(dir, name string, tl []player.Sample) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	// csv.Writer errors are sticky: w.Error reports any failed Write after
	// the final Flush, so a truncated series never passes for a complete one.
	w := csv.NewWriter(f)
	w.Write([]string{"t_s", "video", "audio", "video_buffer_s", "audio_buffer_s", "estimate_kbps", "stalled"})
	for _, p := range tl {
		w.Write([]string{
			fmt.Sprintf("%.3f", p.At.Seconds()),
			trackID(p.Video), trackID(p.Audio),
			fmt.Sprintf("%.3f", p.VideoBuffer.Seconds()),
			fmt.Sprintf("%.3f", p.AudioBuffer.Seconds()),
			fmt.Sprintf("%.1f", estimate(p).Kbps()),
			fmt.Sprintf("%v", p.Stalled),
		})
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fig2a(string) error {
	r, err := experiments.Fig2a()
	if err != nil {
		return err
	}
	fmt.Println("ExoPlayer DASH, low-rate audio ladder (B), fixed 900 Kbps")
	fmt.Printf("  predetermined combos: %v\n", r.Predetermined)
	fmt.Printf("  paper:    selects V3+B2; V3+B3 (601 Kbps) fits but is excluded\n")
	fmt.Printf("  measured: selects %s; %s fits=%v, predetermined=%v\n",
		r.Dominant, r.BetterExcluded, r.BetterFits, r.BetterPredetermined)
	return nil
}

func fig2b(string) error {
	r, err := experiments.Fig2b()
	if err != nil {
		return err
	}
	fmt.Println("ExoPlayer DASH, high-rate audio ladder (C), fixed 900 Kbps")
	fmt.Printf("  paper:    selects V2+C2 (low video + high audio); V3+C1 (669 Kbps) fits but is excluded\n")
	fmt.Printf("  measured: selects %s; %s fits=%v, predetermined=%v\n",
		r.Dominant, r.BetterExcluded, r.BetterFits, r.BetterPredetermined)
	return nil
}

// trackID is a sample's track column: empty before the first decision.
func trackID(t *media.Track) string {
	if t == nil {
		return ""
	}
	return t.ID
}

// estimate is a sample's bandwidth estimate, 0 for an algorithm that
// exposes none.
func estimate(p player.Sample) media.Bps {
	if !p.EstimateOK {
		return 0
	}
	return p.Estimate
}

// chartTimeline renders a figure's buffer/estimate series as ASCII charts.
func chartTimeline(tl []player.Sample, withEstimate bool) {
	if len(tl) == 0 {
		return
	}
	xMax := tl[len(tl)-1].At.Seconds()
	vbuf := make([]float64, len(tl))
	abuf := make([]float64, len(tl))
	var est []float64
	for i, p := range tl {
		vbuf[i] = p.VideoBuffer.Seconds()
		abuf[i] = p.AudioBuffer.Seconds()
		if e := estimate(p); e > 0 {
			est = append(est, e.Kbps())
		}
	}
	_ = plot.Chart(os.Stdout, "  buffer levels (s)", 72, 8, xMax,
		plot.Series{Name: "video", Values: vbuf},
		plot.Series{Name: "audio", Values: abuf})
	if withEstimate && len(est) > 1 {
		_ = plot.Chart(os.Stdout, "  bandwidth estimate (Kbps)", 72, 6, xMax,
			plot.Series{Name: "estimate", Values: est})
	}
}

func fig3(csvDir string) error {
	var rec *timeline.Recorder
	if timelineDir != "" {
		rec = timeline.New(0, "fig3 exoplayer-hls")
	}
	r, err := experiments.Fig3Traced(rec)
	if err != nil {
		return err
	}
	if rec != nil {
		if err := timeline.WriteFiles(timelineDir, "fig3", []*timeline.Recorder{rec}); err != nil {
			return err
		}
	}
	m := r.Outcome.Metrics
	fmt.Println("ExoPlayer HLS, H_sub with A3 listed first, time-varying avg 600 Kbps")
	fmt.Printf("  paper:    audio pinned at A3, 5 stalls, 36.9 s rebuffering, off-manifest combos selected\n")
	fmt.Printf("  measured: audio pinned at %s (switches=%d), %d stalls, %.1f s rebuffering, %d off-manifest chunks\n",
		r.FixedAudio, r.AudioTrackChanges, m.StallCount, m.RebufferTime.Seconds(), r.OffManifestChunks)
	lf, err := experiments.ExoHLSLowFirst()
	if err != nil {
		return err
	}
	fmt.Printf("  companion (A1 first, 5 Mbps): audio pinned at %s, avg audio %.0f Kbps despite ample bandwidth\n",
		lf.FixedAudio, lf.Outcome.Metrics.AvgAudioBitrate.Kbps())
	chartTimeline(r.Outcome.Result.Timeline, false)
	return writeTimeline(csvDir, "fig3.csv", r.Outcome.Result.Timeline)
}

func fig4a(csvDir string) error {
	r, err := experiments.Fig4a()
	if err != nil {
		return err
	}
	fmt.Println("Shaka HLS, H_all, fixed 1 Mbps")
	fmt.Printf("  paper:    estimate stuck at the 500 Kbps default (no interval reaches 16 KB); selects V2+A2\n")
	fmt.Printf("  measured: estimate %v -> %v, valid samples=%v; selects %s\n",
		r.EstimateStart, r.EstimateEnd, r.AnyValidSample, r.Dominant)
	chartTimeline(r.Outcome.Result.Timeline, true)
	return writeTimeline(csvDir, "fig4a.csv", r.Outcome.Result.Timeline)
}

func fig4b(csvDir string) error {
	r, err := experiments.Fig4b()
	if err != nil {
		return err
	}
	m := r.Outcome.Metrics
	fmt.Println("Shaka HLS, H_all, bimodal avg 600 Kbps")
	fmt.Printf("  paper:    under- then over-estimates; V2+A2 then V3+A3; ~39 s rebuffering\n")
	fmt.Printf("  measured: estimate %v -> %v; combos %v; %.1f s rebuffering\n",
		r.EstimateStart, r.EstimateEnd, r.Outcome.Result.CombosSelected(), m.RebufferTime.Seconds())
	chartTimeline(r.Outcome.Result.Timeline, true)
	return writeTimeline(csvDir, "fig4b.csv", r.Outcome.Result.Timeline)
}

func fig5(csvDir string) error {
	r, err := experiments.Fig5()
	if err != nil {
		return err
	}
	fmt.Println("dash.js, DASH, fixed 700 Kbps, independent per-type DYNAMIC")
	fmt.Printf("  paper:    fluctuates across combos incl. undesirable V2+A3; unbalanced A/V buffers\n")
	fmt.Printf("  measured: combos %v; undesirable %v; max buffer imbalance %.1f s\n",
		r.Combos, r.UndesirablePairings, r.MaxImbalance.Seconds())
	chartTimeline(r.Outcome.Result.Timeline, false)
	return writeTimeline(csvDir, "fig5.csv", r.Outcome.Result.Timeline)
}

func compare(string) error {
	for _, s := range experiments.Scenarios() {
		out, err := experiments.Compare(s, parallelN)
		if err != nil {
			return err
		}
		experiments.PrintOutcomes(os.Stdout, "Scenario "+s.Name, out)
		fmt.Println()
	}
	return nil
}

func ablate(string) error {
	for _, s := range experiments.Scenarios() {
		out, err := experiments.Ablate(s, parallelN)
		if err != nil {
			return err
		}
		var list []experiments.Outcome
		for _, v := range experiments.AblationVariants(s.Content) {
			o := out[v.Name]
			o.Model = v.Name
			list = append(list, o)
		}
		experiments.PrintOutcomes(os.Stdout, "Best-practice ablations, scenario "+s.Name, list)
		fmt.Println()
	}
	return nil
}

func sweep(string) error {
	points, err := experiments.BandwidthSweep(experiments.DefaultSweepKbps(), parallelN)
	if err != nil {
		return err
	}
	experiments.PrintSweep(os.Stdout, points)
	return nil
}

func repair(string) error {
	r, err := experiments.Fig3Repaired()
	if err != nil {
		return err
	}
	fmt.Println("§4.1 repair: read second-level media playlists before adapting (Fig 3 conditions)")
	fmt.Printf("  recovered per-track bitrates within %.1f%% of truth\n", r.RecoveredBitrateErr*100)
	fmt.Printf("  broken:   audio fixed (%d switches), %d stalls, %.1f s rebuffer, %d off-manifest chunks\n",
		r.Broken.Metrics.AudioSwitches, r.Broken.Metrics.StallCount,
		r.Broken.Metrics.RebufferTime.Seconds(), r.Broken.Metrics.OffManifest)
	fmt.Printf("  repaired: audio adapts (%d switches), %d stalls, %.1f s rebuffer, %d off-manifest chunks\n",
		r.Repaired.Metrics.AudioSwitches, r.Repaired.Metrics.StallCount,
		r.Repaired.Metrics.RebufferTime.Seconds(), r.Repaired.Metrics.OffManifest)
	return nil
}

func splitpath(string) error {
	r, err := experiments.SplitPath()
	if err != nil {
		return err
	}
	fmt.Printf("§4.1 different servers: video path %.0f Kbps, audio path %.0f Kbps\n",
		r.VideoPathKbps, r.AudioPathKbps)
	fmt.Printf("  aggregate budget: video %.0f Kbps, audio %.0f Kbps, %.1f s rebuffer (video path starved)\n",
		r.Shared.Metrics.AvgVideoBitrate.Kbps(), r.Shared.Metrics.AvgAudioBitrate.Kbps(),
		r.Shared.Metrics.RebufferTime.Seconds())
	fmt.Printf("  per-path budget:  video %.0f Kbps, audio %.0f Kbps, %.1f s rebuffer\n",
		r.PathAware.Metrics.AvgVideoBitrate.Kbps(), r.PathAware.Metrics.AvgAudioBitrate.Kbps(),
		r.PathAware.Metrics.RebufferTime.Seconds())
	return nil
}

func curation(string) error {
	results, err := experiments.ContentCuration()
	if err != nil {
		return err
	}
	fmt.Println("§2.1 content-aware combination curation (same player, same 1.3 Mbps link):")
	for _, r := range results {
		fmt.Printf("  %-14s generic: video %4.0fK audio %3.0fK qoe %5.2f | curated: video %4.0fK audio %3.0fK qoe %5.2f\n",
			r.Content,
			r.Generic.Metrics.AvgVideoBitrate.Kbps(), r.Generic.Metrics.AvgAudioBitrate.Kbps(), r.Generic.Metrics.Score,
			r.Curated.Metrics.AvgVideoBitrate.Kbps(), r.Curated.Metrics.AvgAudioBitrate.Kbps(), r.Curated.Metrics.Score)
	}
	return nil
}

func syncwindow(string) error {
	points, err := experiments.SyncGranularity([]int{0, 1, 2, 4, 8})
	if err != nil {
		return err
	}
	fmt.Println("§4.2 synchronization granularity (best practice, Fig 3 link):")
	for _, p := range points {
		m := p.Outcome.Metrics
		fmt.Printf("  window %d chunks: max imbalance %5.1f s, %d stalls, %.1f s rebuffer, qoe %.2f\n",
			p.Window, m.MaxImbalance.Seconds(), m.StallCount, m.RebufferTime.Seconds(), m.Score)
	}
	return nil
}

func chunkdur(string) error {
	points, err := experiments.ChunkDurationSweep([]float64{1, 2, 5, 10})
	if err != nil {
		return err
	}
	fmt.Println("chunk-duration trade-off (best practice, 900 Kbps, 100 ms RTT):")
	for _, p := range points {
		m := p.Outcome.Metrics
		fmt.Printf("  %4.0fs chunks: startup %4.2fs, video %4.0fK, %d stalls, imbalance %4.1fs, qoe %5.2f\n",
			p.ChunkSeconds, m.StartupDelay.Seconds(), m.AvgVideoBitrate.Kbps(),
			m.StallCount, m.MaxImbalance.Seconds(), m.Score)
	}
	return nil
}

func verify(string) error {
	checks, err := experiments.VerifyAll()
	if err != nil {
		return err
	}
	if failures := experiments.PrintChecks(os.Stdout, checks); failures > 0 {
		return fmt.Errorf("%d paper checks failed", failures)
	}
	return nil
}

func language(string) error {
	r, err := experiments.LanguageSwitch()
	if err != nil {
		return err
	}
	fmt.Println("mid-session audio language switch (en -> es at t=120s, 2 Mbps):")
	fmt.Printf("  demuxed: %5.1f MB discarded (audio only), %d stalls, qoe %.2f\n",
		float64(r.DemuxedDiscarded)/(1<<20), r.Demuxed.Metrics.StallCount, r.Demuxed.Metrics.Score)
	fmt.Printf("  muxed:   %5.1f MB discarded (audio AND video), %d stalls, qoe %.2f\n",
		float64(r.MuxedDiscarded)/(1<<20), r.Muxed.Metrics.StallCount, r.Muxed.Metrics.Score)
	return nil
}

func seeds(string) error {
	summaries, err := experiments.SeedSweep(10, parallelN)
	if err != nil {
		return err
	}
	fmt.Println("QoE across 10 random-walk traces (400-2500 Kbps):")
	experiments.PrintSeedSummaries(os.Stdout, summaries)
	return nil
}

func pareto(string) error {
	points, err := experiments.SafetyFactorSweep([]float64{0.6, 0.7, 0.8, 0.9, 0.95}, parallelN)
	if err != nil {
		return err
	}
	fmt.Println("best-practice safety-factor frontier (Fig 3 link):")
	for _, p := range points {
		m := p.Outcome.Metrics
		fmt.Printf("  factor %.2f: video %4.0fK, %d stalls %5.1fs rebuffer, qoe %6.2f\n",
			p.SafetyFactor, m.AvgVideoBitrate.Kbps(), m.StallCount, m.RebufferTime.Seconds(), m.Score)
	}
	return nil
}

func startup(string) error {
	for _, kbps := range []float64{400, 900, 3000} {
		points, err := experiments.StartupDelays(kbps, parallelN)
		if err != nil {
			return err
		}
		fmt.Printf("time to first frame at %.0f Kbps:\n", kbps)
		for _, p := range points {
			fmt.Printf("  %-16s %6.2f s\n", p.Model, p.StartupDelay.Seconds())
		}
	}
	return nil
}

func crosstraffic(string) error {
	results, err := experiments.CrossTraffic()
	if err != nil {
		return err
	}
	fmt.Println("competing flow on a 2.5 Mbps link between t=100s and t=200s:")
	for _, name := range []string{"exoplayer-dash", "exoplayer-hls", "shaka", "dashjs", "bestpractice", "bola-joint", "mpc-joint"} {
		r, ok := results[name]
		if !ok {
			continue
		}
		m := r.Outcome.Metrics
		fmt.Printf("  %-16s video %4.0fK -> %4.0fK under contention, %d stalls %5.1fs rebuffer, qoe %6.2f\n",
			name, r.BeforeKbps, r.DuringKbps, m.StallCount, m.RebufferTime.Seconds(), m.Score)
	}
	return nil
}

func muxed(string) error {
	r, err := experiments.MuxedBaseline()
	if err != nil {
		return err
	}
	fmt.Println("muxed vs demuxed packaging, same player, Fig 3 link:")
	fmt.Printf("  demuxed: imbalance %.1f s max, %.1f s rebuffer, qoe %.2f\n",
		r.Demuxed.Metrics.MaxImbalance.Seconds(), r.Demuxed.Metrics.RebufferTime.Seconds(), r.Demuxed.Metrics.Score)
	fmt.Printf("  muxed:   imbalance %.1f s max, %.1f s rebuffer, qoe %.2f — at %.2fx the origin storage (H_sub)\n",
		r.Muxed.Metrics.MaxImbalance.Seconds(), r.Muxed.Metrics.RebufferTime.Seconds(), r.Muxed.Metrics.Score, r.StorageRatio)
	return nil
}

func cdn(string) error {
	content := media.DramaShow()
	demuxed := cdnsim.OriginStorage(content, cdnsim.Demuxed, nil)
	muxed := cdnsim.OriginStorage(content, cdnsim.Muxed, media.HAll(content))
	fmt.Printf("Origin storage (§1): demuxed %d MB vs muxed %d MB (%.2fx)\n",
		demuxed>>20, muxed>>20, float64(muxed)/float64(demuxed))
	v1 := content.VideoTracks[0]
	sessions := []cdnsim.Session{
		{Combo: media.Combo{Video: v1, Audio: content.AudioTracks[1]}},
		{Combo: media.Combo{Video: v1, Audio: content.AudioTracks[0]}},
	}
	const cap = 1 << 30
	d := cdnsim.Workload(cdnsim.NewCache(cap), cdnsim.Demuxed, content, sessions)
	mx := cdnsim.Workload(cdnsim.NewCache(cap), cdnsim.Muxed, content, sessions)
	fmt.Printf("Two viewers sharing V1 (§1): demuxed hit ratio %.2f vs muxed %.2f\n",
		d.HitRatio(), mx.HitRatio())
	pop := cdnsim.Population{Viewers: 60, VideoZipf: 1.2, AudioSpread: 3, Seed: 11}
	fmt.Println("Byte hit ratio vs cache size (staggered Zipf audience):")
	for _, p := range cdnsim.CacheSweep(content, pop, []int64{32 << 20, 128 << 20, 512 << 20}, parallelN) {
		fmt.Printf("  %4d MB %s: %.3f\n", p.CacheBytes>>20, p.Mode, p.Stats.ByteHitRatio())
	}
	return nil
}

func fleet(string) error {
	points, err := experiments.FleetScale(experiments.DefaultFleetSizes(), parallelN)
	if err != nil {
		return err
	}
	experiments.PrintFleetScale(os.Stdout, points)
	fmt.Println()
	mixes, err := experiments.FleetMixesParallel(8, parallelN)
	if err != nil {
		return err
	}
	experiments.PrintFleetMixes(os.Stdout, mixes)
	return nil
}

// fleetscale runs one large sharded fleet (-fleet-n sessions in 16-session
// contention cells, streaming sketch aggregation) across -parallel worker
// engines; the printed aggregates are identical at any worker count.
func fleetscale(string) error {
	res, err := experiments.FleetAtScale(fleetN, parallelN)
	if err != nil {
		return err
	}
	experiments.PrintFleetAtScale(os.Stdout, res)
	return nil
}

func transport(string) error {
	cells, err := experiments.TransportComparison(parallelN)
	if err != nil {
		return err
	}
	experiments.PrintTransport(os.Stdout, cells)
	fmt.Println()
	points, err := experiments.TransportResilience(parallelN)
	if err != nil {
		return err
	}
	experiments.PrintTransportResilience(os.Stdout, points)
	return nil
}

// live runs the low-latency family: the LL-ABR trio (dash.js Default,
// L2A, LoLP) holding a latency target over seeded random walks, then the
// demuxed-vs-muxed live penalty across the h1/h2/h3 transport axis.
func live(string) error {
	cells, err := experiments.LiveComparison(parallelN)
	if err != nil {
		return err
	}
	tcells, err := experiments.LiveTransport(parallelN)
	if err != nil {
		return err
	}
	experiments.PrintLive(os.Stdout, cells, tcells)
	return nil
}

// ladder runs the offline-chunking × online-ABR cross-product: one title
// prepared with uniform chunks, shaped per-type chunks, and shaped chunks
// plus a searched per-title ladder — each streamed by the per-type players
// over an RTT-priced link.
func ladder(string) error {
	cells, plan, err := experiments.LadderCross(parallelN)
	if err != nil {
		return err
	}
	experiments.PrintLadder(os.Stdout, cells, plan)
	return nil
}

func resilience(string) error {
	points, err := experiments.ResilienceSweep(experiments.DefaultFaultRates(), parallelN)
	if err != nil {
		return err
	}
	fmt.Printf("Fault resilience on the varying-600 trace (seed %d, default policy):\n", experiments.ResilienceSeed)
	experiments.PrintResilience(os.Stdout, points)
	fmt.Println()
	on, off, err := experiments.PolicyResilience()
	if err != nil {
		return err
	}
	experiments.PrintPolicyResilience(os.Stdout, on, off)
	return nil
}
