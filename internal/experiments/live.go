package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"demuxabr/internal/core"
	"demuxabr/internal/media"
	"demuxabr/internal/netsim"
	"demuxabr/internal/player"
	"demuxabr/internal/runpool"
	"demuxabr/internal/trace"
)

// Live-experiment constants. Everything is a pure function of these, so the
// tables regenerate byte-identically.
const (
	// LiveLatencyTarget is the latency every live session holds — the
	// dash.js low-latency neighbourhood. It sits a little above the
	// pipeline's physical floor (part duration + delivery + RTT), so a
	// well-behaved rule can actually reach the target and a latency-aware
	// controller spends time on both sides of it.
	LiveLatencyTarget = 4 * time.Second
	// LivePartTarget is the CMAF partial-segment duration: with 5 s
	// segments, whole-segment availability alone makes a 3 s target
	// infeasible (latency cannot drop below one segment), so the live
	// experiments run the LL-HLS / LL-DASH part model.
	LivePartTarget = 1 * time.Second
	// LiveEdgeAtJoin is the stream history at join.
	LiveEdgeAtJoin = 60 * time.Second
	// LiveTraceSeeds is how many random-walk traces each cell averages
	// over (same rationale as TransportTraceSeeds).
	LiveTraceSeeds = 8
)

// LiveResyncThreshold is the overrun at which a session abandons catch-up
// and jumps back to the live edge, discarding the skipped media. Pinned
// (rather than the player's 4× target default) so the transport family's
// worst overruns visibly cross it.
const LiveResyncThreshold = 12 * time.Second

// LiveConfig is the latency-target preset every live experiment runs.
func LiveConfig() *player.LiveConfig {
	return &player.LiveConfig{
		LatencyTarget:   LiveLatencyTarget,
		PartTarget:      LivePartTarget,
		EdgeAtJoin:      LiveEdgeAtJoin,
		ResyncThreshold: LiveResyncThreshold,
	}
}

// liveWalk is trace seed s of the model comparison: a random walk between
// 700 and 3000 Kbps re-drawn every 4 s. The floor keeps the lowest ladder
// rungs always sustainable — so any stall is the model's own optimism, not
// a trace the whole trio is forced through — while the dips under the
// mid-ladder rungs build real latency pressure for the rules to diverge on.
func liveWalk(s int) trace.Profile {
	return trace.RandomWalk(int64(s+1)*31, media.Kbps(700), media.Kbps(3000), 4*time.Second, 6*time.Minute)
}

// LiveModels is the low-latency ABR trio, in print order.
func LiveModels() []core.PlayerKind {
	return []core.PlayerKind{core.LLDefault, core.LLL2A, core.LLLoLP}
}

// LiveCell is one model's row of the low-latency comparison, averaged over
// the LiveTraceSeeds traces.
type LiveCell struct {
	Model core.PlayerKind
	Seeds int

	// MeanLatency and FinalLatency are per-trace means; MaxLatency is the
	// worst latency any trace saw.
	MeanLatency  time.Duration
	FinalLatency time.Duration
	MaxLatency   time.Duration
	// Stalls and Rebuffer are totals and per-trace means of rebuffering.
	Stalls   int
	Rebuffer time.Duration
	// Resyncs and Skipped total the live-edge resync jumps and the media
	// they discarded.
	Resyncs int
	Skipped time.Duration
	// RateChanges totals catch-up controller adjustments; MeanRate is the
	// mean of per-trace mean playback rates.
	RateChanges int
	MeanRate    float64
	// VideoQuality and Score are per-trace means.
	VideoQuality float64
	Score        float64
}

// LatencyError is how far the cell's mean latency sits from the target —
// the "holds latency closest to target" quantity.
func (c LiveCell) LatencyError() time.Duration {
	d := c.MeanLatency - LiveLatencyTarget
	if d < 0 {
		d = -d
	}
	return d
}

// LiveComparison runs the low-latency trio under the latency-target player:
// the dash.js-default control (no latency feedback), L2A (hard reaction,
// lowest latency, more stalls), and LoL+ (conservative, fewest stalls,
// closest to target). parallel is the worker count (0 = GOMAXPROCS, 1 =
// serial). Each cell runs its traces serially on private engines, so cells
// are byte-identical at any worker count and come back in LiveModels order.
func LiveComparison(parallel int) ([]LiveCell, error) {
	content := media.DramaShow()
	models := LiveModels()
	return runpool.Map(parallel, len(models), func(i int) (LiveCell, error) {
		cell := LiveCell{Model: models[i], Seeds: LiveTraceSeeds}
		for s := 0; s < LiveTraceSeeds; s++ {
			out, err := core.Play(core.Spec{Content: content, Profile: liveWalk(s), Player: models[i], Live: LiveConfig()})
			if err != nil {
				return LiveCell{}, fmt.Errorf("live %s seed %d: %w", models[i], s, err)
			}
			res, m := out.Result, out.Metrics
			l := res.Live
			if l == nil {
				return LiveCell{}, fmt.Errorf("live %s seed %d: session carried no live stats", models[i], s)
			}
			cell.MeanLatency += l.MeanLatency
			cell.FinalLatency += l.FinalLatency
			if l.MaxLatency > cell.MaxLatency {
				cell.MaxLatency = l.MaxLatency
			}
			cell.Stalls += len(res.Stalls)
			cell.Rebuffer += res.RebufferTime()
			cell.Resyncs += l.Resyncs
			cell.Skipped += l.SkippedTime
			cell.RateChanges += l.RateChanges
			cell.MeanRate += l.MeanRate
			cell.VideoQuality += m.AvgVideoQuality
			cell.Score += m.Score
		}
		n := time.Duration(LiveTraceSeeds)
		cell.MeanLatency /= n
		cell.FinalLatency /= n
		cell.Rebuffer /= n
		cell.MeanRate /= float64(LiveTraceSeeds)
		cell.VideoQuality /= float64(LiveTraceSeeds)
		cell.Score /= float64(LiveTraceSeeds)
		return cell, nil
	})
}

// LiveTransportCell is one (scenario, protocol) cell of the live packaging
// comparison: the transport experiment's pinned demuxed-vs-muxed question
// re-asked under live constraints, where every transport wait eats directly
// into a 3 s latency budget instead of an 8 s VOD buffer.
type LiveTransportCell struct {
	Scenario string
	Protocol netsim.Protocol
	Seeds    int

	Startup  time.Duration
	Rebuffer time.Duration
	// ConnStall is the mean time requests spent waiting inside the
	// transport (handshakes, head-of-line freezes).
	ConnStall time.Duration
	// MeanLatency and FinalLatency are per-trace means of the live-edge
	// latency; Resyncs and Skipped total the overrun recoveries.
	MeanLatency  time.Duration
	FinalLatency time.Duration
	Resyncs      int
	Skipped      time.Duration
}

// DeadAir is mean startup plus mean rebuffering.
func (c LiveTransportCell) DeadAir() time.Duration { return c.Startup + c.Rebuffer }

// LiveTransport crosses the pinned packaging/scheduling scenarios with the
// three HTTP generations, live. Scenarios and pinning follow the transport
// experiment (see transportCombo): the question is what the transport costs
// each packaging mode when the session must also hold a latency target.
// parallel is the worker count; cells come back in the fixed order:
// scenarios outer, protocols inner.
func LiveTransport(parallel int) ([]LiveTransportCell, error) {
	content := media.DramaShow()
	scens := pinnedScenarios(transportCombo(content))
	protos := TransportProtocols()
	return runpool.Map(parallel, len(scens)*len(protos), func(i int) (LiveTransportCell, error) {
		si, pi := i/len(protos), i%len(protos)
		cell := LiveTransportCell{Scenario: scens[si].name, Protocol: protos[pi], Seeds: LiveTraceSeeds}
		for s := 0; s < LiveTraceSeeds; s++ {
			tc := transportConfig(protos[pi], s)
			out, err := core.Play(core.Spec{
				Content:   content,
				Profile:   transportWalk(s),
				Model:     scens[si].build(),
				Muxed:     scens[si].muxed,
				RTT:       TransportRTT,
				Transport: &tc,
				Live:      LiveConfig(),
			})
			if err != nil {
				return LiveTransportCell{}, fmt.Errorf("live transport %s/%s seed %d: %w", scens[si].name, protos[pi], s, err)
			}
			l := out.Result.Live
			if l == nil {
				return LiveTransportCell{}, fmt.Errorf("live transport %s/%s seed %d: session carried no live stats", scens[si].name, protos[pi], s)
			}
			m := out.Metrics
			cell.Startup += m.StartupDelay
			cell.Rebuffer += m.RebufferTime
			cell.MeanLatency += l.MeanLatency
			cell.FinalLatency += l.FinalLatency
			cell.Resyncs += l.Resyncs
			cell.Skipped += l.SkippedTime
			if t := out.Result.Transport; t != nil {
				cell.ConnStall += t.HandshakeWait + t.HoLWait
			}
		}
		n := time.Duration(LiveTraceSeeds)
		cell.Startup /= n
		cell.Rebuffer /= n
		cell.ConnStall /= n
		cell.MeanLatency /= n
		cell.FinalLatency /= n
		return cell, nil
	})
}

// LiveTransportDelta is the demuxed-over-muxed live penalty under one
// protocol: how much extra latency and dead air the free-running demuxed
// player pays over the muxed baseline when both must hold the target.
type LiveTransportDelta struct {
	// Latency is the mean live-edge latency penalty.
	Latency time.Duration
	// DeadAir is the startup + rebuffering penalty.
	DeadAir time.Duration
	// ConnStall is the extra time spent waiting inside the transport —
	// the component that separates the three HTTP generations strictly
	// (two free-running connections idle out and re-handshake on their
	// own clocks under h1, multiplex under h2, resume for 0-RTT under h3).
	ConnStall time.Duration
}

// Total is the combined user-visible penalty (latency plus dead air) — the
// quantity whose widening under h1 and narrowing under h3 the live
// experiments assert.
func (d LiveTransportDelta) Total() time.Duration { return d.Latency + d.DeadAir }

// LiveTransportDeltas reduces the live packaging comparison per protocol:
// demux-independent minus muxed. Under live constraints the demuxed
// penalty widens beyond its VOD counterpart on h1 — two connections idle
// out on their own clocks and every re-handshake lands inside the latency
// budget — and narrows under h3's multiplexed 0-RTT connection.
func LiveTransportDeltas(cells []LiveTransportCell) map[netsim.Protocol]LiveTransportDelta {
	byCell := map[string]map[netsim.Protocol]LiveTransportCell{}
	for _, c := range cells {
		if byCell[c.Scenario] == nil {
			byCell[c.Scenario] = map[netsim.Protocol]LiveTransportCell{}
		}
		byCell[c.Scenario][c.Protocol] = c
	}
	out := map[netsim.Protocol]LiveTransportDelta{}
	for _, p := range TransportProtocols() {
		d, m := byCell["demux-independent"][p], byCell["muxed"][p]
		out[p] = LiveTransportDelta{
			Latency:   d.MeanLatency - m.MeanLatency,
			DeadAir:   d.DeadAir() - m.DeadAir(),
			ConnStall: d.ConnStall - m.ConnStall,
		}
	}
	return out
}

// PrintLive renders the low-latency model comparison and the live
// demuxed-vs-muxed transport deltas.
func PrintLive(w io.Writer, cells []LiveCell, tcells []LiveTransportCell) {
	fmt.Fprintf(w, "Low-latency models (target %v, %v parts, %d walk traces 700-3000 Kbps):\n",
		LiveLatencyTarget, LivePartTarget, LiveTraceSeeds)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "model\tmean lat\tfinal lat\tmax lat\tstalls\trebuf\tresyncs\tskipped\trate chg\tmean rate\tvquality\tQoE")
	for _, c := range cells {
		fmt.Fprintf(tw, "%s\t%.2fs\t%.2fs\t%.1fs\t%d\t%.1fs\t%d\t%.1fs\t%d\t%.3f\t%.2f\t%.2f\n",
			c.Model, c.MeanLatency.Seconds(), c.FinalLatency.Seconds(), c.MaxLatency.Seconds(),
			c.Stalls, c.Rebuffer.Seconds(), c.Resyncs, c.Skipped.Seconds(),
			c.RateChanges, c.MeanRate, c.VideoQuality, c.Score)
	}
	tw.Flush()
	fmt.Fprintln(w, "LoL+ holds latency closest to target with the fewest stalls; L2A buys low")
	fmt.Fprintln(w, "latency with extra down-switches and stalls; the latency-blind default")
	fmt.Fprintln(w, "drifts whenever the walk dips under its selection.")
	fmt.Fprintf(w, "Live packaging under transport (pinned V2+A1, %d walk traces 250-1000 Kbps, RTT %v):\n",
		LiveTraceSeeds, TransportRTT)
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scenario\tproto\tstartup\trebuf\tdead air\tconn stall\tmean lat\tfinal lat\tresyncs\tskipped")
	for _, c := range tcells {
		fmt.Fprintf(tw, "%s\t%s\t%.2fs\t%.2fs\t%.2fs\t%.1fs\t%.2fs\t%.2fs\t%d\t%.1fs\n",
			c.Scenario, c.Protocol,
			c.Startup.Seconds(), c.Rebuffer.Seconds(), c.DeadAir().Seconds(), c.ConnStall.Seconds(),
			c.MeanLatency.Seconds(), c.FinalLatency.Seconds(), c.Resyncs, c.Skipped.Seconds())
	}
	tw.Flush()
	fmt.Fprintln(w, "Demuxed-over-muxed live penalty (independent scheduling, mean per session):")
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "proto\tlatency\tdead air\ttotal\tconn stall")
	deltas := LiveTransportDeltas(tcells)
	for _, p := range TransportProtocols() {
		d := deltas[p]
		fmt.Fprintf(tw, "%s\t%+.2fs\t%+.2fs\t%+.2fs\t%+.1fs\n",
			p, d.Latency.Seconds(), d.DeadAir.Seconds(), d.Total().Seconds(), d.ConnStall.Seconds())
	}
	tw.Flush()
	fmt.Fprintf(w, "The live demuxed penalty widens under h1 (every per-connection re-handshake\n")
	fmt.Fprintf(w, "lands inside the %v latency budget) and narrows under h3.\n", LiveLatencyTarget)
}
