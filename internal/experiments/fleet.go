package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"demuxabr/internal/cdnsim"
	"demuxabr/internal/core"
	"demuxabr/internal/fleet"
	"demuxabr/internal/media"
	"demuxabr/internal/qoe"
	"demuxabr/internal/runpool"
	"demuxabr/internal/trace"
)

// FleetSeed seeds every fleet experiment: arrivals and derived per-session
// fault plans are functions of this constant, so the tables regenerate
// byte-identically.
const FleetSeed = 17

// DefaultFleetSizes is the scale sweep: from a solo session through a
// heavily contended 64-client edge.
func DefaultFleetSizes() []int { return []int{1, 2, 4, 8, 16, 32, 64} }

// defaultFleetConfig is the shared topology of the fleet experiments: a
// fixed 24 Mbps edge uplink behind which every client has a 6 Mbps access
// link — uncontended through N=4, progressively squeezed beyond — with
// arrivals staggered over 30 s and a 60 ms origin-fetch penalty on edge
// cache misses. The fleet mixes the four joint models round-robin: a
// realistic edge serves heterogeneous players whose selections diverge, so
// muxed combination objects fragment the cache while demuxed track objects
// keep being shared (the §1 argument, measured).
func defaultFleetConfig(n int, mode cdnsim.Mode) fleet.Config {
	return fleet.Config{
		Sessions:      n,
		Mode:          mode,
		Mix:           []core.PlayerKind{core.BestPractice, core.BolaJoint, core.MPCJoint, core.DynamicJoint},
		UplinkProfile: trace.Fixed(media.Kbps(24_000)),
		AccessProfile: trace.Fixed(media.Kbps(6_000)),
		ArrivalSpread: 30 * time.Second,
		MissPenalty:   60 * time.Millisecond,
		Seed:          FleetSeed,
	}
}

// FleetScalePoint is one cell of the scale sweep: a fleet size under one
// packaging mode, reduced to its aggregates.
type FleetScalePoint struct {
	N int
	// NIndex is the position of N in the sweep's size list; PrintFleetScale
	// joins rows on it.
	NIndex    int
	Mode      cdnsim.Mode
	Fleet     qoe.FleetMetrics
	Cache     cdnsim.Stats
	Completed int
}

// FleetScale runs every fleet size under both packaging modes — the
// packaging-at-scale comparison: demuxed packaging's shared-cache
// amplification grows with N while muxed combination objects fragment the
// cache. parallel is the worker count (0 = GOMAXPROCS, 1 = serial). Each
// (N, mode) job is one independent co-simulation on its own engine;
// collection is in job-submission order, so output is byte-identical at
// any worker count.
func FleetScale(ns []int, parallel int) ([]FleetScalePoint, error) {
	modes := []cdnsim.Mode{cdnsim.Demuxed, cdnsim.Muxed}
	return runpool.Map(parallel, len(ns)*len(modes), func(i int) (FleetScalePoint, error) {
		ni, mi := i/len(modes), i%len(modes)
		res, err := fleet.Run(defaultFleetConfig(ns[ni], modes[mi]))
		if err != nil {
			return FleetScalePoint{}, fmt.Errorf("fleet scale N=%d %s: %w", ns[ni], modes[mi], err)
		}
		return FleetScalePoint{
			N: ns[ni], NIndex: ni, Mode: modes[mi],
			Fleet: res.Fleet, Cache: res.Cache, Completed: res.Completed,
		}, nil
	})
}

// FleetMix names one fleet composition for the homogeneous-vs-mixed
// comparison.
type FleetMix struct {
	Name string
	Mix  []core.PlayerKind
}

// FleetMixes returns the compositions compared at fixed fleet size: each
// joint model running homogeneously, then all of them sharing one edge.
func FleetMixes() []FleetMix {
	return []FleetMix{
		{"bestpractice", []core.PlayerKind{core.BestPractice}},
		{"bola-joint", []core.PlayerKind{core.BolaJoint}},
		{"mpc-joint", []core.PlayerKind{core.MPCJoint}},
		{"dynamic-joint", []core.PlayerKind{core.DynamicJoint}},
		{"mixed", []core.PlayerKind{core.BestPractice, core.BolaJoint, core.MPCJoint, core.DynamicJoint}},
	}
}

// FleetMixPoint is one composition's outcome.
type FleetMixPoint struct {
	Name      string
	Sessions  int
	Fleet     qoe.FleetMetrics
	Cache     cdnsim.Stats
	Completed int
}

// FleetMixesParallel runs each composition as an n-session demuxed fleet on
// the default contended topology.
func FleetMixesParallel(n, parallel int) ([]FleetMixPoint, error) {
	mixes := FleetMixes()
	return runpool.Map(parallel, len(mixes), func(i int) (FleetMixPoint, error) {
		cfg := defaultFleetConfig(n, cdnsim.Demuxed)
		cfg.Mix = mixes[i].Mix
		res, err := fleet.Run(cfg)
		if err != nil {
			return FleetMixPoint{}, fmt.Errorf("fleet mix %s: %w", mixes[i].Name, err)
		}
		return FleetMixPoint{
			Name: mixes[i].Name, Sessions: n,
			Fleet: res.Fleet, Cache: res.Cache, Completed: res.Completed,
		}, nil
	})
}

// PrintFleetScale renders the scale sweep: per fleet size, the demuxed
// fleet's QoE distribution and fairness next to both modes' cache
// effectiveness. "amp" is the cache amplification of demuxed over muxed
// packaging — the §1 shared-track argument measured at scale.
func PrintFleetScale(w io.Writer, points []FleetScalePoint) {
	byCell := map[int]map[cdnsim.Mode]FleetScalePoint{}
	ncols := 0
	for _, p := range points {
		if byCell[p.NIndex] == nil {
			byCell[p.NIndex] = map[cdnsim.Mode]FleetScalePoint{}
		}
		byCell[p.NIndex][p.Mode] = p
		if p.NIndex+1 > ncols {
			ncols = p.NIndex + 1
		}
	}
	fmt.Fprintln(w, "Fleet scale sweep (24 Mbps shared uplink, 6 Mbps access, 30 s arrival spread):")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "N\tdone\tQoE med\tQoE p10\tJain\tvideo med\tdemux hit\tmux hit\tamp")
	for i := 0; i < ncols; i++ {
		d, okD := byCell[i][cdnsim.Demuxed]
		m, okM := byCell[i][cdnsim.Muxed]
		if !okD || !okM {
			continue
		}
		amp := "-"
		if m.Cache.ByteHitRatio() > 0 {
			amp = fmt.Sprintf("%.2fx", d.Cache.ByteHitRatio()/m.Cache.ByteHitRatio())
		}
		fmt.Fprintf(tw, "%d\t%d/%d\t%.2f\t%.2f\t%.3f\t%.0fK\t%.3f\t%.3f\t%s\n",
			d.N, d.Completed, d.Fleet.Sessions,
			d.Fleet.Score.Median, d.Fleet.Score.P10, d.Fleet.JainVideoKbps,
			d.Fleet.VideoKbps.Median,
			d.Cache.ByteHitRatio(), m.Cache.ByteHitRatio(), amp)
	}
	tw.Flush()
}

// PrintFleetMixes renders the composition comparison.
func PrintFleetMixes(w io.Writer, points []FleetMixPoint) {
	if len(points) == 0 {
		return
	}
	fmt.Fprintf(w, "Fleet compositions at N=%d (demuxed, shared 24 Mbps uplink):\n", points[0].Sessions)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Mix\tdone\tQoE med\tQoE p10\tJain\tvideo med\trebuf med\tbyte hit")
	for _, p := range points {
		fmt.Fprintf(tw, "%s\t%d/%d\t%.2f\t%.2f\t%.3f\t%.0fK\t%.1fs\t%.3f\n",
			p.Name, p.Completed, p.Fleet.Sessions,
			p.Fleet.Score.Median, p.Fleet.Score.P10, p.Fleet.JainVideoKbps,
			p.Fleet.VideoKbps.Median, p.Fleet.RebufferSeconds.Median,
			p.Cache.ByteHitRatio())
	}
	tw.Flush()
}

// FleetCellSessions is the contention-cell size used at scale: each cell is
// one edge neighborhood — 16 clients with 6 Mbps access links squeezing a
// 24 Mbps uplink, the same 4x oversubscription the classic sweep reaches at
// N=16 — replicated across the fleet by the seeded cell permutation.
const FleetCellSessions = 16

// FleetAtScale runs one large demuxed fleet partitioned into
// FleetCellSessions-sized cells across the given number of shard workers
// (0 = one per core), always on the streaming sketch path so memory stays
// O(shards + sketch) at any N. Output is byte-identical for every shards
// value.
func FleetAtScale(n, shards int) (*fleet.Result, error) {
	cfg := defaultFleetConfig(n, cdnsim.Demuxed)
	cfg.CellSessions = FleetCellSessions
	cfg.Shards = shards
	cfg.MaxRetained = -1 // stream at every N: the scale rows measure one path
	return fleet.Run(cfg)
}

// PrintFleetAtScale renders one large-fleet run's aggregates.
func PrintFleetAtScale(w io.Writer, res *fleet.Result) {
	f := res.Fleet
	fmt.Fprintf(w, "Fleet at scale: N=%d in %d cells of %d (demuxed, streaming aggregation):\n",
		f.Sessions, res.Cells, FleetCellSessions)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "done\tQoE med\tQoE p10\tJain\tvideo med\trebuf med\tstartup med\tbyte hit")
	fmt.Fprintf(tw, "%d/%d\t%.2f\t%.2f\t%.3f\t%.0fK\t%.1fs\t%.2fs\t%.3f\n",
		res.Completed, f.Sessions,
		f.Score.Median, f.Score.P10, f.JainVideoKbps,
		f.VideoKbps.Median, f.RebufferSeconds.Median, f.StartupSeconds.Median,
		res.Cache.ByteHitRatio())
	tw.Flush()
	fmt.Fprintf(w, "sampled per-session rows retained: %d\n", len(res.Sessions))
}
