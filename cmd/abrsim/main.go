// Command abrsim runs a single ABR streaming session in the simulator and
// prints the QoE summary, optionally dumping the timeline as CSV. With
// -sessions > 1 it co-simulates a fleet: N players sharing the given
// bandwidth as an edge uplink behind one shared CDN cache, with staggered
// arrivals.
//
// Usage:
//
//	abrsim -player bestpractice -kbps 700 [-content drama] [-timeline-csv out.csv] [-timeline dir]
//	abrsim -player shaka -trace profile.csv [-manifest hall] [-audio-first A3]
//	abrsim -compare -kbps 700 [-parallel n]
//	abrsim -sessions 8 -kbps 24000 [-arrival-spread 30s] [-mix bestpractice,bola-joint] [-json fleet.json]
//	abrsim -sessions 100000 -cell 16 -shards 4 [-sample-timelines 1000] [-json fleet.json]
//	abrsim -player ll-lolp -kbps 2000 -live [-latency-target 4s] [-part-target 1s]
//
// Large fleets partition into contention cells of -cell sessions (each cell
// shares one uplink and edge cache) executed across -shards worker engines;
// the aggregate output is byte-identical for any shard count. Beyond 4096
// sessions the report switches to streaming sketch aggregation and the
// per-session table shows a reservoir sample.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"text/tabwriter"
	"time"

	"demuxabr/internal/core"
	"demuxabr/internal/faults"
	"demuxabr/internal/fleet"
	"demuxabr/internal/media"
	"demuxabr/internal/netsim"
	"demuxabr/internal/player"
	"demuxabr/internal/report"
	"demuxabr/internal/runpool"
	"demuxabr/internal/shaping"
	"demuxabr/internal/timeline"
	"demuxabr/internal/trace"
)

func main() {
	var o options
	flag.StringVar(&o.player, "player", "bestpractice", playerUsage())
	flag.Float64Var(&o.kbps, "kbps", 0, "fixed link bandwidth in Kbps")
	flag.StringVar(&o.traceFile, "trace", "", "bandwidth trace CSV (seconds,kbps rows; overrides -kbps)")
	flag.StringVar(&o.profile, "profile", "", "named bandwidth profile (fig2, fig3, fig4a, fig4b, fig5, exohls-5m, lte); overrides -kbps")
	flag.StringVar(&o.content, "content", "drama", "content: "+strings.Join(media.Names(), ", "))
	flag.Int64Var(&o.shapingSeed, "shaping-seed", 21, "seed for -shaping (scene model and ladder search)")
	flag.StringVar(&o.shaping, "shaping", "", "offline content preparation: chunks (shaped per-type boundaries, authored ladder), full (boundaries + searched per-title ladder), or fixed (uniform chunks but the same scene signal); drama content only")
	flag.StringVar(&o.manifest, "manifest", "hsub", "HLS manifest combinations: hsub (curated) or hall (all)")
	flag.StringVar(&o.audioFirst, "audio-first", "", "audio track listed first in the HLS manifest (e.g. A3)")
	flag.StringVar(&o.timelineCSV, "timeline-csv", "", "write the session timeline as CSV to this file")
	flag.StringVar(&o.timelineDir, "timeline", "", "write flight-recorder timelines (JSONL + Chrome trace) into this directory")
	flag.StringVar(&o.jsonOut, "json", "", "write the full session (or fleet) report as JSON to this file")
	flag.BoolVar(&o.compare, "compare", false, "run every player model and print a comparison table (ignores -player)")
	flag.IntVar(&o.parallel, "parallel", 0, "worker count for -compare (0 = GOMAXPROCS, 1 = serial)")
	flag.Float64Var(&o.faultRate, "fault-rate", 0, "per-segment-request fault injection probability in [0,1]")
	flag.Int64Var(&o.faultSeed, "fault-seed", 1, "seed for the fault plan (same seed = same failure sequence)")
	flag.BoolVar(&o.noRetry, "no-retry", false, "disable the download robustness policy (fail fast on the first fault)")
	flag.StringVar(&o.transport, "transport", "", "transport connection model: h1, h2, or h3 (default: off — requests ride the bare link)")
	flag.DurationVar(&o.rtt, "rtt", 80*time.Millisecond, "access round-trip time that prices -transport handshakes (ignored without -transport)")
	flag.BoolVar(&o.live, "live", false, "live mode: availability-gated chunks, join-at-edge, latency-target playback-rate control")
	flag.DurationVar(&o.latencyTarget, "latency-target", 4*time.Second, "live-edge latency the catch-up controller holds (ignored without -live)")
	flag.DurationVar(&o.partTarget, "part-target", time.Second, "CMAF part duration advertised by the live origin; 0 = whole-segment availability (ignored without -live)")
	flag.IntVar(&o.sessions, "sessions", 1, "fleet size; >1 co-simulates N sessions sharing the bandwidth as an edge uplink behind one shared cache")
	flag.DurationVar(&o.arrivalSpread, "arrival-spread", 30*time.Second, "fleet arrival window: session starts are staggered (seeded) over [0, spread)")
	flag.StringVar(&o.mix, "mix", "", "comma-separated player kinds assigned round-robin across fleet sessions (default: -player for every session)")
	flag.Int64Var(&o.seed, "seed", 17, "fleet seed: drives arrival draws and per-session fault plan derivation")
	flag.IntVar(&o.cell, "cell", 0, "fleet contention-cell size: sessions per shared uplink+cache (0 = one cell for the whole fleet)")
	flag.IntVar(&o.shards, "shards", 0, "fleet worker engines; cells are distributed round-robin, output is identical for any value (0 = GOMAXPROCS)")
	flag.IntVar(&o.sampleTimelines, "sample-timelines", 0, "with -timeline, record every k-th session only (0 or 1 = all sessions)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "abrsim:", err)
		os.Exit(1)
	}

	switch {
	case o.compare:
		err = runCompare(o)
	case o.sessions > 1:
		err = runFleet(o)
	default:
		err = run(o)
	}
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "abrsim:", err)
		os.Exit(1)
	}
}

// playerUsage is the -player flag's help text: every player kind core
// knows, in its order.
func playerUsage() string {
	kinds := core.PlayerKinds()
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = string(k)
	}
	return "player model: " + strings.Join(names, ", ")
}

// startProfiles arms the pprof outputs; the returned stop function flushes
// them and must run before exit (the dispatch above keeps os.Exit after it).
func startProfiles(cpuPath, memPath string) (func() error, error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return err
			}
			runtime.GC() // materialize final live-heap numbers
			if err := pprof.WriteHeapProfile(f); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}
		return nil
	}, nil
}

// options is the command line: main registers every field as a flag, and
// the run modes read their settings from here alone (the profiling flags
// are main's own).
type options struct {
	player, content, manifest, audioFirst string

	// Bandwidth: -profile beats -trace beats -kbps.
	kbps               float64
	traceFile, profile string

	// Offline content preparation; off when shaping is empty.
	shaping     string
	shapingSeed int64

	timelineCSV, timelineDir, jsonOut string

	compare  bool
	parallel int

	// Fault injection; faultSeed also seeds the transport.
	faultRate float64
	faultSeed int64
	noRetry   bool

	// Transport; off when transport is empty.
	transport string
	rtt       time.Duration

	live                      bool
	latencyTarget, partTarget time.Duration

	// Fleet mode (sessions > 1).
	sessions                      int
	arrivalSpread                 time.Duration
	mix                           string
	seed                          int64
	cell, shards, sampleTimelines int
}

// faultPlan is the injected-fault plan. A zero rate means no plan at all.
func (o options) faultPlan() *faults.Plan {
	if o.faultRate <= 0 {
		return nil
	}
	return &faults.Plan{Seed: o.faultSeed, Rate: o.faultRate}
}

// faultPolicy is the default robustness policy whenever faults are
// injected; -no-retry (or a clean run) keeps the legacy fail-fast
// behaviour.
func (o options) faultPolicy() *faults.Policy {
	if o.noRetry || o.faultRate <= 0 {
		return nil
	}
	pol := faults.DefaultPolicy()
	return &pol
}

// transportConfig resolves -transport into a transport config. An empty
// protocol means the transport layer is off (nil): requests ride the bare
// link, keeping default runs byte-identical to transport-less builds. The
// keep-alive window matches the transport experiment family (700 ms, a
// mobile radio/NAT idle teardown); the loss axis stays on the -fault-rate
// machinery rather than transport loss draws.
func (o options) transportConfig() (*netsim.TransportConfig, error) {
	if o.transport == "" {
		return nil, nil
	}
	p, err := netsim.ParseProtocol(o.transport)
	if err != nil {
		return nil, err
	}
	tc := netsim.DefaultTransport(p)
	tc.IdleTimeout = 700 * time.Millisecond
	tc.Seed = o.faultSeed
	return &tc, nil
}

// linkRTT is the access RTT to apply — only meaningful with a transport.
func (o options) linkRTT() time.Duration {
	if o.transport == "" {
		return 0
	}
	return o.rtt
}

// liveConfig resolves the live flags. Disabled live mode resolves to a nil
// config, keeping VOD runs byte-identical to pre-live builds.
func (o options) liveConfig() *player.LiveConfig {
	if !o.live {
		return nil
	}
	return &player.LiveConfig{
		LatencyTarget: o.latencyTarget,
		PartTarget:    o.partTarget,
	}
}

// runCompare runs every player kind under the same conditions. The flags
// are resolved once and every session shares the result, including the
// fault plan. Sessions fan out across parallel workers (each on its own
// simulation engine); collection is in PlayerKinds order, so the table is
// identical at any worker count.
func runCompare(o options) error {
	kinds := core.PlayerKinds()
	// Recorders are pre-created in kind order: each worker appends only to
	// its own, so the exported timeline is byte-identical at any -parallel.
	var recs []*timeline.Recorder
	if o.timelineDir != "" {
		recs = make([]*timeline.Recorder, len(kinds))
		for i := range recs {
			recs[i] = timeline.New(i, string(kinds[i]))
		}
	}
	spec, err := o.sessionSpec()
	if err != nil {
		return err
	}
	sessions, err := runpool.Map(o.parallel, len(kinds), func(i int) (*core.Session, error) {
		spec := spec
		spec.Player = kinds[i]
		spec.Recorder = recFor(recs, i)
		sess, err := core.Play(spec)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", kinds[i], err)
		}
		return sess, nil
	})
	if err != nil {
		return err
	}
	if o.timelineDir != "" {
		if err := timeline.WriteFiles(o.timelineDir, "compare", recs); err != nil {
			return err
		}
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Model\tVideo\tAudio\tStalls\tRebuffer\tSwitches\tOff-manifest\tQoE")
	for _, sess := range sessions {
		m := sess.Metrics
		qoeCell := fmt.Sprintf("%.2f", m.Score)
		if sess.Result.Aborted {
			qoeCell = "abort"
		}
		fmt.Fprintf(tw, "%s\t%.0fK\t%.0fK\t%d\t%.1fs\t%d/%d\t%d\t%s\n",
			sess.Model, m.AvgVideoBitrate.Kbps(), m.AvgAudioBitrate.Kbps(),
			m.StallCount, m.RebufferTime.Seconds(),
			m.VideoSwitches, m.AudioSwitches, m.OffManifest, qoeCell)
	}
	return tw.Flush()
}

// loadContent resolves -content, applying the offline shaping stage when
// requested. Without -shaping, content comes straight from the preset,
// byte-identical to pre-shaping builds. Shaping re-synthesizes the drama
// title from a seeded scene signal, so it is restricted to the drama
// content whose encoding spec it reconstructs; the shaped modes misalign
// the A/V timelines on purpose, so joint and muxed players will refuse
// them.
func (o options) loadContent() (*media.Content, error) {
	if o.shaping == "" {
		return media.Named(o.content)
	}
	if o.content != "drama" {
		return nil, fmt.Errorf("-shaping supports only -content drama, not %q", o.content)
	}
	base := media.ContentSpec{
		Name:          "drama-show",
		Duration:      media.DramaDuration,
		ChunkDuration: media.DramaChunkDuration,
		VideoTracks:   media.DramaVideoLadder(),
		AudioTracks:   media.DramaAudioLadder(),
		Model:         media.DefaultChunkModel(),
	}
	plan, err := shaping.Optimize(base, shaping.Config{Seed: o.shapingSeed, Workers: 1})
	if err != nil {
		return nil, err
	}
	var spec media.ContentSpec
	switch o.shaping {
	case "fixed":
		spec = plan.FixedSpec(base)
	case "chunks":
		spec = plan.FixedSpec(base)
		spec.VideoChunks = plan.VideoChunks
		spec.AudioChunks = plan.AudioChunks
	case "full":
		spec = plan.Spec(base)
	default:
		return nil, fmt.Errorf("unknown -shaping mode %q (chunks, full, or fixed)", o.shaping)
	}
	return media.NewContent(spec)
}

// parseProfile resolves the bandwidth flags (-profile beats -trace beats
// -kbps).
func parseProfile(kbps float64, traceFile, profileName string) (trace.Profile, error) {
	switch {
	case profileName != "":
		return trace.Named(profileName)
	case traceFile != "":
		f, err := os.Open(traceFile)
		if err != nil {
			return nil, err
		}
		profile, err := trace.ReadCSV(f)
		f.Close()
		return profile, err
	case kbps > 0:
		return trace.Fixed(media.Kbps(kbps)), nil
	default:
		return nil, fmt.Errorf("need -kbps, -trace, or -profile")
	}
}

// parseManifest resolves -manifest and -audio-first into manifest options.
func parseManifest(content *media.Content, manifest, audioFirst string) (core.ManifestOptions, error) {
	mo := core.ManifestOptions{}
	switch manifest {
	case "hsub":
		// Nil Combos is H_sub, and zero options share the memoized parse.
	case "hall":
		mo.Combos = media.HAll(content)
	default:
		return mo, fmt.Errorf("unknown manifest %q", manifest)
	}
	if audioFirst != "" {
		first := content.TrackByID(audioFirst)
		if first == nil || first.Type != media.Audio {
			return mo, fmt.Errorf("unknown audio track %q", audioFirst)
		}
		mo.AudioOrder = []*media.Track{first}
		for _, a := range content.AudioTracks {
			if a != first {
				mo.AudioOrder = append(mo.AudioOrder, a)
			}
		}
	}
	return mo, nil
}

// recFor indexes a recorder slice that may be nil (timelines disabled).
func recFor(recs []*timeline.Recorder, i int) *timeline.Recorder {
	if recs == nil {
		return nil
	}
	return recs[i]
}

// playOnce resolves the CLI flags and runs one session of the -player
// model, attaching rec (may be nil) as its flight recorder.
func playOnce(o options, rec *timeline.Recorder) (*core.Session, error) {
	kind, err := core.ParsePlayerKind(o.player)
	if err != nil {
		return nil, err
	}
	spec, err := o.sessionSpec()
	if err != nil {
		return nil, err
	}
	spec.Player = kind
	spec.Recorder = rec
	// The JSON report and the timeline CSV carry the per-sample log.
	spec.KeepTimeline = o.jsonOut != "" || o.timelineCSV != ""
	return core.Play(spec)
}

// sessionSpec resolves the flags every session of a run shares (content,
// profile, manifest options, faults, transport and live mode) into a spec
// with no player or recorder set.
func (o options) sessionSpec() (core.Spec, error) {
	content, err := o.loadContent()
	if err != nil {
		return core.Spec{}, err
	}
	profile, err := parseProfile(o.kbps, o.traceFile, o.profile)
	if err != nil {
		return core.Spec{}, err
	}
	mo, err := parseManifest(content, o.manifest, o.audioFirst)
	if err != nil {
		return core.Spec{}, err
	}
	tc, err := o.transportConfig()
	if err != nil {
		return core.Spec{}, err
	}
	return core.Spec{
		Content:    content,
		Profile:    profile,
		Manifest:   mo,
		Faults:     o.faultPlan(),
		Robustness: o.faultPolicy(),
		RTT:        o.linkRTT(),
		Transport:  tc,
		Live:       o.liveConfig(),
	}, nil
}

// parseMix resolves -mix (comma-separated kinds, round-robin) falling back
// to -player for a homogeneous fleet.
func parseMix(mixStr, playerName string) ([]core.PlayerKind, error) {
	names := []string{playerName}
	if mixStr != "" {
		names = strings.Split(mixStr, ",")
	}
	kinds := make([]core.PlayerKind, 0, len(names))
	for _, name := range names {
		kind, err := core.ParsePlayerKind(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		kinds = append(kinds, kind)
	}
	return kinds, nil
}

// runFleet co-simulates N sessions: the flag-selected bandwidth becomes the
// shared edge uplink, every client gets a generous access link behind it,
// and all sessions hit one shared edge cache. Output is a per-session table
// plus the fleet aggregates; -json writes the full fleet report.
func runFleet(o options) error {
	spec, err := o.sessionSpec()
	if err != nil {
		return err
	}
	kinds, err := parseMix(o.mix, o.player)
	if err != nil {
		return err
	}
	res, err := fleet.Run(fleet.Config{
		Content:         spec.Content,
		Sessions:        o.sessions,
		Mix:             kinds,
		Manifest:        spec.Manifest,
		UplinkProfile:   spec.Profile,
		ArrivalSpread:   o.arrivalSpread,
		MissPenalty:     60 * time.Millisecond,
		Seed:            o.seed,
		FaultPlan:       spec.Faults,
		Robustness:      spec.Robustness,
		Timeline:        o.timelineDir != "",
		CellSessions:    o.cell,
		Shards:          o.shards,
		SampleTimelines: o.sampleTimelines,
		Transport:       spec.Transport,
		AccessRTT:       spec.RTT,
		Live:            spec.Live,
	})
	if err != nil {
		return err
	}
	if o.timelineDir != "" {
		if err := timeline.WriteFiles(o.timelineDir, "fleet", res.Recorders); err != nil {
			return err
		}
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "ID\tModel\tArrival\tVideo\tAudio\tStalls\tRebuffer\tCache hit\tQoE")
	if res.Streamed {
		fmt.Fprintf(tw, "(streaming aggregation: showing a %d-session reservoir sample)\n", len(res.Sessions))
	}
	for _, s := range res.Sessions {
		m := s.Metrics
		qoeCell := fmt.Sprintf("%.2f", m.Score)
		if !s.Ended {
			qoeCell += " (aborted)"
		}
		fmt.Fprintf(tw, "%d\t%s\t%.1fs\t%.0fK\t%.0fK\t%d\t%.1fs\t%.2f\t%s\n",
			s.ID, s.Kind, s.Arrival.Seconds(),
			m.AvgVideoBitrate.Kbps(), m.AvgAudioBitrate.Kbps(),
			m.StallCount, m.RebufferTime.Seconds(), s.Cache.HitRatio(), qoeCell)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Printf("fleet:  %d/%d completed, QoE median %.2f (p10 %.2f), Jain fairness %.3f\n",
		res.Completed, res.Fleet.Sessions, res.Fleet.Score.Median, res.Fleet.Score.P10, res.Fleet.JainVideoKbps)
	fmt.Printf("cache:  %d requests, hit ratio %.3f, byte hit ratio %.3f (origin offload)\n",
		res.Cache.Requests, res.Cache.HitRatio(), res.Cache.ByteHitRatio())

	if o.jsonOut != "" {
		f, err := os.Create(o.jsonOut)
		if err != nil {
			return err
		}
		if err := res.Report(o.content).WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}

func run(o options) error {
	var rec *timeline.Recorder
	if o.timelineDir != "" {
		rec = timeline.New(0, o.player)
	}
	sess, err := playOnce(o, rec)
	if err != nil {
		return err
	}
	m := sess.Metrics
	fmt.Printf("model:           %s\n", sess.Model)
	fmt.Printf("startup delay:   %.2f s\n", m.StartupDelay.Seconds())
	fmt.Printf("stalls:          %d (%.1f s rebuffering, ratio %.3f)\n", m.StallCount, m.RebufferTime.Seconds(), m.RebufferRatio)
	fmt.Printf("avg video:       %.0f Kbps (quality %.2f, %d switches)\n", m.AvgVideoBitrate.Kbps(), m.AvgVideoQuality, m.VideoSwitches)
	fmt.Printf("avg audio:       %.0f Kbps (quality %.2f, %d switches)\n", m.AvgAudioBitrate.Kbps(), m.AvgAudioQuality, m.AudioSwitches)
	fmt.Printf("combos used:     %v (off-manifest chunks: %d)\n", sess.Result.CombosSelected(), m.OffManifest)
	fmt.Printf("buffer imbalance: max %.1f s, mean %.1f s\n", m.MaxImbalance.Seconds(), m.MeanImbalance.Seconds())
	fmt.Printf("QoE score:       %.2f\n", m.Score)
	if o.faultRate > 0 || len(sess.Result.Faults) > 0 {
		fmt.Printf("faults:          %d (%d retries, %d failovers, %.1f KB wasted)\n",
			len(sess.Result.Faults), sess.Result.Retries, len(sess.Result.Failovers),
			float64(sess.Result.WastedFaultBytes())/1000)
	}
	if t := sess.Result.Transport; t != nil {
		fmt.Printf("transport:       %s — %d handshakes, %d resumes, %d hol stalls (%.1f s handshake wait, %.1f s hol wait)\n",
			t.Protocol, t.Handshakes, t.Resumes, t.HoLStalls,
			t.HandshakeWait.Seconds(), t.HoLWait.Seconds())
	}
	if l := sess.Result.Live; l != nil {
		fmt.Printf("live:            latency target %.1f s — join %.1f s, mean %.2f s, max %.2f s, final %.2f s\n",
			l.LatencyTarget.Seconds(), l.JoinLatency.Seconds(),
			l.MeanLatency.Seconds(), l.MaxLatency.Seconds(), l.FinalLatency.Seconds())
		fmt.Printf("catch-up:        mean rate %.3fx (%d changes, %.1f s sped up, %.1f s slowed), %d resyncs skipping %.1f s\n",
			l.MeanRate, l.RateChanges, l.CatchupTime.Seconds(), l.SlowdownTime.Seconds(),
			l.Resyncs, l.SkippedTime.Seconds())
	}
	if sess.Result.Aborted {
		fmt.Printf("ABORTED:         %s\n", sess.Result.AbortReason)
	}
	if rec != nil {
		c := rec.Counters()
		fmt.Printf("timeline:        %d events (%d decisions, %d requests, %d retries, %d stalls)\n",
			c.Events, c.Decisions, c.Requests, c.Retries, c.Stalls)
		if err := timeline.WriteFiles(o.timelineDir, "session", []*timeline.Recorder{rec}); err != nil {
			return err
		}
	}

	if o.jsonOut != "" {
		f, err := os.Create(o.jsonOut)
		if err != nil {
			return err
		}
		doc := report.FromResult(o.content, sess.Result, sess.Metrics)
		if rec != nil {
			doc.TimelineCounters = report.CountersFrom(rec.Counters())
		}
		if err := doc.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	if o.timelineCSV != "" {
		return writeTimelineCSV(o.timelineCSV, sess.Result.Timeline)
	}
	return nil
}

// writeTimelineCSV writes the session's periodic samples as CSV to path.
// A failed write, flush or close is an error, so a truncated file never
// passes for a complete one.
func writeTimelineCSV(path string, samples []player.Sample) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// csv.Writer errors are sticky: w.Error reports any failed Write after
	// the final Flush.
	w := csv.NewWriter(f)
	w.Write([]string{"t_s", "playpos_s", "video", "audio", "vbuf_s", "abuf_s", "est_kbps", "stalled"})
	for _, s := range samples {
		video, audio := "", ""
		if s.Video != nil {
			video = s.Video.ID
		}
		if s.Audio != nil {
			audio = s.Audio.ID
		}
		w.Write([]string{
			fmt.Sprintf("%.3f", s.At.Seconds()),
			fmt.Sprintf("%.3f", s.PlayPos.Seconds()),
			video, audio,
			fmt.Sprintf("%.3f", s.VideoBuffer.Seconds()),
			fmt.Sprintf("%.3f", s.AudioBuffer.Seconds()),
			fmt.Sprintf("%.1f", s.Estimate.Kbps()),
			fmt.Sprintf("%v", s.Stalled),
		})
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
