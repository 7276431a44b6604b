// Package fleet co-simulates many adaptive streaming sessions on one
// discrete-event engine: each client gets its own access link behind a
// shared edge uplink (two-tier topology, weighted max-min fair), every
// session's chunk requests pass through one shared CDN edge cache, and
// arrivals are staggered over a seeded window — the multi-client regime
// where the paper's best practices (demuxed packaging, joint adaptation)
// meet contention and cache sharing.
//
// A fleet run is fully deterministic in its Config: the engine orders all
// events, arrivals are drawn from a seeded generator, and per-session
// fault plans derive from the fleet seed — so fleets can be fanned out
// across runpool workers and still reproduce byte-identical reports.
package fleet

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"demuxabr/internal/cdnsim"
	"demuxabr/internal/core"
	"demuxabr/internal/faults"
	"demuxabr/internal/media"
	"demuxabr/internal/netsim"
	"demuxabr/internal/player"
	"demuxabr/internal/qoe"
	"demuxabr/internal/report"
	"demuxabr/internal/runpool"
	"demuxabr/internal/stats"
	"demuxabr/internal/timeline"
	"demuxabr/internal/trace"
)

// Config parameterizes one fleet co-simulation.
type Config struct {
	// Content is the asset every session streams (default: the paper's
	// drama show).
	Content *media.Content
	// Sessions is the fleet size (required, > 0).
	Sessions int
	// Mix assigns player models round-robin across sessions (session i
	// runs Mix[i % len(Mix)]). Default: every session runs BestPractice.
	Mix []core.PlayerKind
	// Manifest controls the server-side declarations each model sees.
	Manifest core.ManifestOptions
	// Mode is the packaging at the shared edge: demuxed track objects or
	// muxed combination objects. Muxed requires every Mix entry to be a
	// joint model.
	Mode cdnsim.Mode
	// CacheBytes sizes the shared edge cache (default 256 MiB).
	CacheBytes int64
	// MissPenalty is the extra first-byte delay a session pays when its
	// request misses the edge cache and the edge fetches from the origin.
	// Zero keeps the cache accounting without the latency coupling.
	MissPenalty time.Duration
	// UplinkProfile is the shared edge uplink capacity (required).
	UplinkProfile trace.Profile
	// AccessProfile is each client's access-link capacity (default: a
	// generous 100 Mbps, making the shared uplink the bottleneck).
	AccessProfile trace.Profile
	// ArrivalSpread staggers session starts uniformly (seeded) over
	// [0, ArrivalSpread). Zero starts everyone at once.
	ArrivalSpread time.Duration
	// Seed drives the arrival draws and offsets per-session fault plans.
	Seed int64
	// FaultPlan, when set, injects per-session download faults: session i
	// runs a copy of the plan reseeded with the fleet seed and its ID, so
	// different clients see different (but reproducible) faults. Demuxed
	// mode only.
	FaultPlan *faults.Plan
	// Robustness is the per-session retry/failover policy.
	Robustness *faults.Policy
	// Transport, when non-nil, routes every session's requests through
	// transport connections (handshakes, stream caps, HoL coupling; see
	// netsim.Conn). Session i runs a copy reseeded with its ID so loss
	// draws are independent but reproducible. Nil keeps requests directly
	// on the access links.
	Transport *netsim.TransportConfig
	// AccessRTT sets each access link's request round trip; zero keeps
	// the paper's negligible-RTT testbed. Transport costs scale with it.
	AccessRTT time.Duration
	// Live, when non-nil, runs every session in latency-target live mode
	// (availability gating, catch-up rate control, live-edge resync; see
	// player.LiveConfig). Nil keeps the exact VOD behaviour.
	Live *player.LiveConfig
	// MaxBuffer overrides the player buffer cap when non-zero.
	MaxBuffer time.Duration
	// Deadline overrides the per-session abort deadline when non-zero.
	Deadline time.Duration
	// MaxEvents bounds the whole co-simulation (default 20 million plus
	// 2 million per session).
	MaxEvents int
	// Timeline attaches a flight recorder to every session (plus one for
	// the shared uplink and cache): the Result carries the recorders for
	// JSONL / Chrome-trace export and the Report gains aggregate counters.
	Timeline bool
	// CellSessions partitions the fleet into independent contention cells
	// of this many sessions: each cell gets its own engine run, uplink,
	// and edge cache (the paper's edge serving one neighborhood; a shard
	// worker resets one set for each of its cells), and sessions
	// are assigned to cells by a seeded permutation — a pure function of
	// (Seed, Sessions, CellSessions), never of how the cells are executed.
	// Zero keeps today's behavior: one cell holding the whole fleet.
	CellSessions int
	// Shards caps how many worker engines execute cells concurrently.
	// Sharding is purely an execution knob: cells are dealt round-robin to
	// shards and every aggregate is either merge-order independent or
	// folded in cell-index order, so any Shards value (including the
	// GOMAXPROCS default of 0) produces byte-identical output.
	Shards int
	// SampleTimelines thins the flight recorder at scale: with k > 1 only
	// every k-th session records (session IDs congruent to Seed mod k),
	// plus the uplink recorder of any cell containing a sampled session.
	// Report timeline counters then cover only the sampled sessions.
	// 0 or 1 records everyone, as before.
	SampleTimelines int
	// MaxRetained bounds how many session rows a fleet keeps: fleets
	// larger than this stream per-session metrics into mergeable sketches
	// (memory O(shards) instead of O(sessions)) and keep only a seeded
	// reservoir sample of the rows. Zero means DefaultMaxRetained; negative
	// forces streaming at any size.
	MaxRetained int
}

// DefaultMaxRetained is the fleet size beyond which Run switches from exact
// per-session retention to streaming sketch aggregation.
const DefaultMaxRetained = 4096

// sampledRows is how many per-session rows the streaming path retains (a
// deterministic uniform reservoir sample) for the report's per_session
// table.
const sampledRows = 64

// SessionSample is one session's row in a fleet: its outcome as the QoE
// metrics the report is built from, not its recorded Result.
type SessionSample struct {
	// ID is the session's index (also its arrival rank).
	ID int
	// Kind is the player model the session ran.
	Kind core.PlayerKind
	// Arrival is the engine time the session started.
	Arrival time.Duration
	// Ended reports that the session played to the end.
	Ended bool
	// Metrics are the session's QoE numbers (session-relative times, as a
	// solo run would produce).
	Metrics qoe.Metrics
	// Cache is the session's slice of the shared-edge accounting.
	Cache cdnsim.Stats
}

// Result is one finished fleet co-simulation.
type Result struct {
	// Mode is the packaging the shared edge served.
	Mode cdnsim.Mode
	// Sessions holds session rows in ID order: every session on the exact
	// path, the deterministic reservoir sample when Streamed.
	Sessions []SessionSample
	// Completed counts sessions that played to the end.
	Completed int
	// Cache is the edge caches' aggregate accounting (summed across cells).
	Cache cdnsim.Stats
	// Fleet aggregates the per-session metrics (distributions, Jain).
	Fleet qoe.FleetMetrics
	// Recorders holds the flight recorders when Config.Timeline was set:
	// sampled sessions in ID order, then the uplink recorder of each cell
	// that contains a sampled session, in cell order. Nil otherwise.
	Recorders []*timeline.Recorder
	// Streamed reports that the run aggregated via sketches instead of
	// retaining every session's row (Sessions is then a sample).
	Streamed bool
	// Cells is how many contention cells the fleet was partitioned into.
	Cells int
	// CompletedScore summarizes completed sessions' scores: exactly, in ID
	// order, on the exact path; from a sketch when Streamed.
	CompletedScore stats.Summary
}

func (c *Config) setDefaults() error {
	if c.Sessions <= 0 {
		return fmt.Errorf("fleet: session count %d, want > 0", c.Sessions)
	}
	if c.UplinkProfile == nil {
		return errors.New("fleet: nil uplink profile")
	}
	if c.Content == nil {
		c.Content = media.DramaShow()
	}
	if len(c.Mix) == 0 {
		c.Mix = []core.PlayerKind{core.BestPractice}
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 256 << 20
	}
	if c.AccessProfile == nil {
		c.AccessProfile = trace.Fixed(media.Kbps(100_000))
	}
	if c.Mode == cdnsim.Muxed && c.FaultPlan != nil {
		return errors.New("fleet: fault injection requires demuxed mode")
	}
	if c.ArrivalSpread < 0 {
		return fmt.Errorf("fleet: negative arrival spread %v", c.ArrivalSpread)
	}
	if c.CellSessions < 0 {
		return fmt.Errorf("fleet: negative cell size %d", c.CellSessions)
	}
	if c.CellSessions == 0 || c.CellSessions > c.Sessions {
		c.CellSessions = c.Sessions
	}
	if c.Shards < 0 {
		return fmt.Errorf("fleet: negative shard count %d", c.Shards)
	}
	if c.SampleTimelines < 0 {
		return fmt.Errorf("fleet: negative timeline sampling interval %d", c.SampleTimelines)
	}
	if c.MaxRetained == 0 {
		c.MaxRetained = DefaultMaxRetained
	}
	return nil
}

// cellBudget is the per-cell event budget: the configured MaxEvents, or the
// historical default scaled to the cell's population.
func (c *Config) cellBudget(cellSessions int) int {
	if c.MaxEvents != 0 {
		return c.MaxEvents
	}
	return 20_000_000 + 2_000_000*cellSessions
}

// streaming reports whether this fleet aggregates via sketches.
func (c *Config) streaming() bool { return c.Sessions > c.MaxRetained }

// sampledTimeline reports whether session id records a timeline under the
// sampling interval (every k-th ID, phase derived from the seed).
func (c *Config) sampledTimeline(id int) bool {
	k := c.SampleTimelines
	if k <= 1 {
		return true
	}
	off := int(((c.Seed % int64(k)) + int64(k)) % int64(k))
	return id%k == off
}

// cells assigns session IDs to contention cells: a seeded permutation of
// the fleet is cut into CellSessions-sized chunks, each sorted ascending.
// The assignment is a pure function of (Seed, Sessions, CellSessions) —
// execution order, shard count, and parallelism cannot perturb it. The
// permutation (rather than contiguous ID blocks) mixes player kinds and
// arrival ranks across cells, so every cell is a random sub-population.
func (c *Config) cells() [][]int {
	n, size := c.Sessions, c.CellSessions
	if size >= n {
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		return [][]int{ids}
	}
	// A distinct derived seed: the arrival draws consume the raw Seed
	// stream and must stay byte-identical to the pre-cell implementation.
	rng := rand.New(rand.NewSource(c.Seed ^ 0x5eed_ce11))
	perm := rng.Perm(n)
	ncells := (n + size - 1) / size
	cells := make([][]int, ncells)
	for j := range cells {
		lo, hi := j*size, (j+1)*size
		if hi > n {
			hi = n
		}
		cell := perm[lo:hi]
		slices.Sort(cell)
		cells[j] = cell
	}
	return cells
}

// arrivals draws the fleet's seeded start times: Sessions uniform draws
// over [0, ArrivalSpread), sorted so session ID equals arrival rank.
func (c *Config) arrivals() []time.Duration {
	at := make([]time.Duration, c.Sessions)
	if c.ArrivalSpread <= 0 {
		return at
	}
	rng := rand.New(rand.NewSource(c.Seed))
	for i := range at {
		at[i] = time.Duration(rng.Int63n(int64(c.ArrivalSpread)))
	}
	slices.Sort(at)
	return at
}

// sessionPlan derives session i's fault plan from the fleet plan into
// *plan and returns plan, or nil without a fleet plan: same knobs, a seed
// offset by the session ID so clients fail independently but reproducibly.
func (c *Config) sessionPlan(i int, plan *faults.Plan) *faults.Plan {
	if c.FaultPlan == nil {
		return nil
	}
	*plan = *c.FaultPlan
	plan.Seed = c.FaultPlan.Seed + int64(i+1)*1_000_003
	return plan
}

// sessionTransport derives session i's transport config into *tc and
// returns tc, or nil without a fleet transport: same knobs, a seed offset
// by the session ID so connection loss draws are independent across
// clients but a pure function of (fleet seed, session ID).
func (c *Config) sessionTransport(i int, tc *netsim.TransportConfig) *netsim.TransportConfig {
	if c.Transport == nil {
		return nil
	}
	*tc = *c.Transport
	tc.Seed = c.Transport.Seed + c.Seed + int64(i+1)*1_000_003
	return tc
}

// parseManifests returns each Mix entry's parsed manifest, indexed like
// Mix. Only the models are built per session: the parse is read-only and
// shared by every shard, and with zero Manifest options core.ParseManifest
// hands repeated kinds the same memoized parse. A kind no session runs is
// not parsed.
func (c *Config) parseManifests() ([]*core.ParsedManifest, error) {
	out := make([]*core.ParsedManifest, len(c.Mix))
	for i, kind := range c.Mix[:min(len(c.Mix), c.Sessions)] {
		m, err := core.ParseManifest(kind, c.Content, c.Manifest)
		if err != nil {
			return nil, fmt.Errorf("fleet: session %d (%s): %w", i, kind, err)
		}
		out[i] = m
	}
	return out, nil
}

// Run executes the co-simulation: sessions are partitioned into contention
// cells (each cell an engine run, a two-tier bottleneck, and an edge cache
// — one cell covering the whole fleet by default), cells are dealt
// round-robin to shard workers, and per-shard aggregates are merged in a
// fixed order. It returns when every session has finished or aborted.
// Output is byte-identical for any Shards value; with the default single
// cell it is byte-identical to the original single-engine implementation.
func Run(cfg Config) (*Result, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	manifests, err := cfg.parseManifests()
	if err != nil {
		return nil, err
	}
	arrive := cfg.arrivals()
	cells := cfg.cells()
	stream := cfg.streaming()

	shards := cfg.Shards
	if shards <= 0 {
		shards = runpool.Workers(0)
	}
	if shards > len(cells) {
		shards = len(cells)
	}

	aggs, err := runpool.Map(shards, shards, func(sh int) (*shardAgg, error) {
		agg := newShardAgg(&cfg, stream)
		sim := takeShardSim(&cfg, agg, arrive)
		for ci := sh; ci < len(cells); ci += shards {
			if err := runCell(sim, manifests, ci, len(cells), cells[ci]); err != nil {
				return nil, err
			}
		}
		putShardSim(sim)
		return agg, nil
	})
	if err != nil {
		return nil, err
	}
	return mergeShards(&cfg, stream, len(cells), aggs)
}

// Report flattens the fleet result into the stable JSON export schema.
func (r *Result) Report(contentName string) *report.Fleet {
	f := &report.Fleet{
		Content:   contentName,
		Mode:      r.Mode.String(),
		Completed: r.Completed,
		Cache: report.CacheStats{
			Requests:      r.Cache.Requests,
			Hits:          r.Cache.Hits,
			HitRatio:      r.Cache.HitRatio(),
			ByteHitRatio:  r.Cache.ByteHitRatio(),
			BytesServed:   r.Cache.BytesServed,
			BytesOrigin:   r.Cache.BytesOrigin,
			OriginOffload: r.Cache.ByteHitRatio(),
		},
	}
	f.ApplyFleetMetrics(r.Fleet)
	f.ScoreCompleted = report.FromSummary(r.CompletedScore)
	if r.Streamed {
		// Streaming path: distributions come from the sketches already in
		// r.Fleet; the per-session table is the reservoir sample.
		f.Aggregation = "sketch"
		f.SampledSessions = len(r.Sessions)
	}
	for _, s := range r.Sessions {
		f.PerSession = append(f.PerSession, report.FleetSession{
			ID:            s.ID,
			Model:         string(s.Kind),
			ArrivalS:      s.Arrival.Seconds(),
			Ended:         s.Ended,
			Metrics:       report.MetricsFrom(s.Metrics),
			CacheHitRatio: s.Cache.HitRatio(),
		})
	}
	if r.Cells > 1 {
		f.Cells = r.Cells
	}
	if len(r.Recorders) > 0 {
		var c timeline.Counters
		for _, rec := range r.Recorders {
			c = c.Merge(rec.Counters())
		}
		f.TimelineCounters = report.CountersFrom(c)
	}
	return f
}
