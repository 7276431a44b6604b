package fleet

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"demuxabr/internal/cdnsim"
	"demuxabr/internal/core"
	"demuxabr/internal/faults"
	"demuxabr/internal/media"
	"demuxabr/internal/netsim"
	"demuxabr/internal/player"
	"demuxabr/internal/qoe"
	"demuxabr/internal/runpool"
	"demuxabr/internal/stats"
	"demuxabr/internal/timeline"
)

// shardAgg accumulates one shard worker's share of the fleet. Each shard
// runs its cells sequentially, so nothing here is touched concurrently; the
// merge across shards happens after runpool.Map returns them in submission
// order. Everything a shard carries is either merge-order independent
// (sketches, integer counters, the bottom-k reservoir) or tagged with its
// cell index so mergeShards can fold it in cell order — the two properties
// that make the final output independent of the shard count.
type shardAgg struct {
	stream bool

	// Exact path: every session's row, sorted by ID at merge time.
	rows []SessionSample

	// Streaming path: sketches, per-cell Jain partials, reservoir rows.
	acc       *qoe.FleetAccumulator
	jain      []cellJain
	reservoir *stats.Reservoir[SessionSample]
	// sampleLive holds the live summaries of the reservoir's rows, by slot.
	sampleLive *[sampledRows]player.LiveStats

	completed int
	cache     cdnsim.Stats

	// Flight recorders (sampled sessions + per-cell uplinks), each keyed
	// by a globally-unique recorder session index.
	recs   []*timeline.Recorder
	upRecs []*timeline.Recorder

	// jainCur collects the cell currently running.
	jainCur  qoe.JainPartial
	jainCell int
}

type cellJain struct {
	cell    int
	partial qoe.JainPartial
}

func newShardAgg(cfg *Config, stream bool) *shardAgg {
	a := &shardAgg{stream: stream}
	if stream {
		a.acc = qoe.NewFleetAccumulator()
		a.reservoir = stats.NewReservoir[SessionSample](sampledRows, cfg.Seed)
	}
	return a
}

func (a *shardAgg) beginCell(cell int) {
	a.jainCur = qoe.JainPartial{}
	a.jainCell = cell
}

func (a *shardAgg) endCell(cell int, edgeStats cdnsim.Stats) {
	a.cache = a.cache.Plus(edgeStats)
	if a.stream {
		a.jain = append(a.jain, cellJain{cell: a.jainCell, partial: a.jainCur})
	}
}

// addSession records one finished session's row. On the exact path every
// row is retained; on the streaming path only the sketches, the cell's
// Jain partial, and the row itself if the seeded reservoir selects it. A
// row's live summary points into the session's spare parts, which the
// next session on the object overwrites, so each row kept points to a
// copy: its own on the exact path, its reservoir slot's on the streaming
// path, which allocates the slots' copies once, with the first live row.
func (a *shardAgg) addSession(row SessionSample) {
	if row.Ended {
		a.completed++
	}
	live := row.Metrics.Live
	if !a.stream {
		if live != nil {
			ls := *live
			row.Metrics.Live = &ls
		}
		a.rows = append(a.rows, row)
		return
	}
	a.acc.Add(row.Metrics, row.Ended)
	a.jainCur.Observe(row.Metrics.AvgVideoBitrate.Kbps())
	if slot := a.reservoir.Add(row.ID, row); slot >= 0 && live != nil {
		if a.sampleLive == nil {
			a.sampleLive = new([sampledRows]player.LiveStats)
		}
		a.sampleLive[slot] = *live
		a.reservoir.Slot(slot).Metrics.Live = &a.sampleLive[slot]
	}
}

// shardSim is the simulation state a shard worker keeps from one cell to
// the next, and from one Run to the next: the engine with its event and
// transfer freelists, the uplink with its leaves, the edge with its cache's
// slots and index, the pool of request records and finished sessions, and
// one slot per cell position. Each cell resets it before it starts, and
// leaves the engine drained.
type shardSim struct {
	eng   *netsim.Engine
	up    *netsim.Uplink
	cache *cdnsim.Cache
	edge  *cdnsim.Edge
	pool  *player.Pool
	slots []cellSlot

	// What the slots' callbacks read: the fleet, the shard's aggregate,
	// the arrival times, and the scratch table qoe.Compute builds each
	// session's selections in. A Run binds the first three (see
	// takeShardSim).
	cfg    *Config
	agg    *shardAgg
	arrive []time.Duration
	qoe    qoe.Scratch
}

// shardSims holds the shard states no Run is using.
var shardSims runpool.Free[shardSim]

// takeShardSim takes a free state off shardSims, or makes one, and binds
// it to a Run's fleet, shard aggregate and arrival times.
func takeShardSim(cfg *Config, agg *shardAgg, arrive []time.Duration) *shardSim {
	sim := shardSims.Take()
	if sim == nil {
		eng := netsim.NewEngine()
		cache := cdnsim.NewCache(cfg.CacheBytes)
		sim = &shardSim{
			eng:   eng,
			up:    netsim.NewUplink(eng, cfg.UplinkProfile),
			cache: cache,
			edge:  cdnsim.NewEdge(cache, cfg.Mode, cfg.Content, 0),
			pool:  new(player.Pool),
		}
	}
	if len(sim.slots) < cfg.CellSessions {
		sim.slots = make([]cellSlot, cfg.CellSessions)
		for li := range sim.slots {
			sl := &sim.slots[li]
			sl.sim, sl.li = sim, li
			sl.onRequest, sl.onDone, sl.start = sl.request, sl.done, sl.run
		}
	}
	sim.cfg, sim.agg, sim.arrive = cfg, agg, arrive
	return sim
}

// putShardSim puts a state back on shardSims once every cell of its Run
// has succeeded: a failed cell can leave events pending. The state first
// lets go of everything of the Run's caller it holds.
func putShardSim(sim *shardSim) {
	sim.cfg, sim.agg, sim.arrive = nil, nil, nil
	sim.up.SetRecorder(nil, "")
	sim.edge.Reset(cdnsim.Demuxed, nil, 0)
	for li := range sim.slots {
		sim.slots[li].forget()
	}
	shardSims.Put(sim)
}

// cellSlot is one position of a cell: the state the callbacks of the
// session at that position read, and those callbacks, bound once per
// shardSim. A slot's fault plan and transport config are the session's,
// held by value, so a cell makes no closure, plan or config per session.
// Each cell overwrites the slots it uses; the sessions of the last one
// have all finished by then.
type cellSlot struct {
	sim      *shardSim
	li, id   int
	kind     core.PlayerKind
	combos   []media.Combo
	leaf     *netsim.Link
	finished bool
	err      error
	plan     faults.Plan
	tc       netsim.TransportConfig
	pcfg     player.Config

	onRequest func(player.ChunkRequest) time.Duration
	onDone    func(*player.Session)
	start     func()
}

// forget drops everything the slot holds of the last cell, keeping its
// position and its callbacks.
func (sl *cellSlot) forget() {
	*sl = cellSlot{sim: sl.sim, li: sl.li, onRequest: sl.onRequest, onDone: sl.onDone, start: sl.start}
}

// run starts the slot's session at its arrival time.
func (sl *cellSlot) run() {
	if _, err := sl.sim.pool.Start(sl.leaf, sl.leaf, sl.pcfg); err != nil {
		sl.err = err
	}
}

// request is the session's edge hook: a hit costs nothing extra, a miss
// the origin round trip.
func (sl *cellSlot) request(req player.ChunkRequest) time.Duration {
	var hit bool
	if req.MuxedWith != nil {
		hit = sl.sim.edge.RequestMuxed(sl.li, req.Track, req.MuxedWith, req.Index)
	} else {
		hit = sl.sim.edge.RequestTrack(sl.li, req.Track, req.Index)
	}
	if hit {
		return 0
	}
	return sl.sim.cfg.MissPenalty
}

// done fires once per session, inside the engine loop, after the Result is
// final, and reduces the session to its row: no path keeps the Result, so
// the cell's end can release the session to the pool.
func (sl *cellSlot) done(s *player.Session) {
	sl.finished = true
	sim := sl.sim
	r := s.Result()
	sim.agg.addSession(SessionSample{
		ID:      sl.id,
		Kind:    sl.kind,
		Arrival: sim.arrive[sl.id],
		Ended:   r.Ended,
		Metrics: sim.qoe.Compute(r, sim.cfg.Content, sl.combos, qoe.DefaultWeights()),
		Cache:   sim.edge.SessionStats(sl.li),
	})
}

// runCell simulates one contention cell: its own shared uplink and edge
// cache, populated by the cell's sessions starting at their global
// arrival times. Each session's model is built from its Mix entry's parse
// in manifests (see Config.parseManifests). For the default single cell
// this is, step for step, the original whole-fleet loop — the
// equivalence the shard tests pin. The cell resets the shard's simulation
// state, which the previous cell, of this Run or an earlier one, left
// drained, so its sessions take the events, transfers, leaves and cache
// slots earlier cells released, and they start through the shard's pool.
// The cell then releases its sessions to the pool for the next cell to
// reuse: no Result outlives its session's OnDone (see cellSlot.done).
func runCell(sim *shardSim, manifests []*core.ParsedManifest, cellIdx, numCells int, ids []int) error {
	cfg, agg, eng, up, edge := sim.cfg, sim.agg, sim.eng, sim.up, sim.edge
	eng.Reset()
	up.Reset(cfg.UplinkProfile)
	sim.cache.Reset(cfg.CacheBytes)
	edge.Reset(cfg.Mode, cfg.Content, len(ids))
	budget := cfg.cellBudget(len(ids))
	agg.beginCell(cellIdx)

	var recs []*timeline.Recorder
	var upRec *timeline.Recorder
	if cfg.Timeline {
		anySampled := false
		recs = make([]*timeline.Recorder, len(ids))
		for li, id := range ids {
			if !cfg.sampledTimeline(id) {
				continue // unsampled sessions never allocate a recorder
			}
			recs[li] = timeline.New(id, fmt.Sprintf("s%d %s", id, cfg.Mix[id%len(cfg.Mix)]))
			anySampled = true
		}
		if anySampled {
			label := "uplink"
			if numCells > 1 {
				label = fmt.Sprintf("uplink-c%d", cellIdx)
			}
			// Uplink recorders index after every session ID, in cell order.
			upRec = timeline.New(cfg.Sessions+cellIdx, label)
			up.SetRecorder(upRec, label)
		}
		// Cache outcomes land in the requesting session's recorder; the
		// edge calls the observer from inside the engine loop, so ordering
		// is deterministic.
		edge.Observer = func(session int, key string, size int64, hit bool) {
			rec := recs[session]
			if rec == nil {
				return
			}
			kind := timeline.CacheMiss
			if hit {
				kind = timeline.CacheHit
			}
			rec.Emit(timeline.Event{
				At: eng.Now(), Kind: kind, Index: -1, Detail: key, Bytes: size,
			})
		}
	}

	slots := sim.slots[:len(ids)]
	for li, id := range ids {
		sl := &slots[li]
		manifest := manifests[id%len(cfg.Mix)]
		sl.id, sl.kind, sl.combos = id, cfg.Mix[id%len(cfg.Mix)], manifest.Allowed()
		sl.finished, sl.err = false, nil
		sl.leaf = up.NewLeaf(cfg.AccessProfile)
		sl.leaf.RTT = cfg.AccessRTT
		sl.pcfg = player.Config{
			Content:    cfg.Content,
			Model:      manifest.NewModel(),
			Muxed:      cfg.Mode == cdnsim.Muxed,
			MaxBuffer:  cfg.MaxBuffer,
			Deadline:   cfg.Deadline,
			MaxEvents:  budget,
			FaultPlan:  cfg.sessionPlan(id, &sl.plan),
			Robustness: cfg.Robustness,
			Transport:  cfg.sessionTransport(id, &sl.tc),
			Live:       cfg.Live,
			Recorder:   recFor(recs, li),
			OnRequest:  sl.onRequest,
			OnDone:     sl.onDone,
		}
		eng.Schedule(sim.arrive[id], sl.start)
	}

	if err := eng.Run(budget); err != nil {
		return err
	}
	for i := range slots {
		if sl := &slots[i]; sl.err != nil {
			return fmt.Errorf("fleet: session %d (%s): %w", sl.id, sl.kind, sl.err)
		}
	}
	for i := range slots {
		if sl := &slots[i]; !sl.finished {
			return fmt.Errorf("fleet: session %d (%s) never finished (event budget too small?)", sl.id, sl.kind)
		}
	}
	sim.pool.Release()

	agg.endCell(cellIdx, edge.Aggregate())
	if cfg.Timeline {
		for _, rec := range recs {
			if rec != nil {
				agg.recs = append(agg.recs, rec)
			}
		}
		if upRec != nil {
			agg.upRecs = append(agg.upRecs, upRec)
		}
	}
	return nil
}

// recFor returns session li's recorder, or nil when recording is off.
func recFor(recs []*timeline.Recorder, li int) *timeline.Recorder {
	if recs == nil {
		return nil
	}
	return recs[li]
}

// mergeShards folds per-shard aggregates into the final Result. Shards are
// visited in submission order; within that, anything order-sensitive is
// re-sorted by session ID or cell index, so the outcome is a pure function
// of the cell results.
func mergeShards(cfg *Config, stream bool, numCells int, aggs []*shardAgg) (*Result, error) {
	res := &Result{Mode: cfg.Mode, Streamed: stream, Cells: numCells}
	for _, a := range aggs {
		res.Completed += a.completed
		res.Cache = res.Cache.Plus(a.cache)
	}

	if stream {
		// Both merges are order-independent (integer bins, exact extremes,
		// a bottom-k sample keyed by ID), so the first shard's accumulator
		// and reservoir take the rest in place.
		acc, reservoir := aggs[0].acc, aggs[0].reservoir
		for _, a := range aggs[1:] {
			acc.Merge(a.acc)
			reservoir.Merge(a.reservoir)
		}
		var jains []cellJain
		for _, a := range aggs {
			jains = append(jains, a.jain...)
		}
		// Jain partials are float sums: fold them in cell-index order so
		// the total is identical no matter which shard ran which cell.
		slices.SortFunc(jains, func(a, b cellJain) int { return cmp.Compare(a.cell, b.cell) })
		var jain qoe.JainPartial
		for _, cj := range jains {
			jain = jain.Plus(cj.partial)
		}
		res.Fleet = acc.FleetMetrics(jain.Index())
		res.CompletedScore = acc.ScoreCompleted.Summary()
		res.Sessions = reservoir.Items()
	} else {
		var rows []SessionSample
		for _, a := range aggs {
			rows = append(rows, a.rows...)
		}
		slices.SortFunc(rows, func(a, b SessionSample) int { return cmp.Compare(a.ID, b.ID) })
		res.Sessions = rows
		metrics := make([]qoe.Metrics, len(rows))
		var completed []float64
		for i, s := range rows {
			metrics[i] = s.Metrics
			if s.Ended {
				completed = append(completed, s.Metrics.Score)
			}
		}
		res.Fleet = qoe.ComputeFleet(metrics)
		res.CompletedScore = stats.Summarize(completed)
	}

	if cfg.Timeline {
		var recs, upRecs []*timeline.Recorder
		for _, a := range aggs {
			recs = append(recs, a.recs...)
			upRecs = append(upRecs, a.upRecs...)
		}
		slices.SortFunc(recs, byRecorderSession)
		slices.SortFunc(upRecs, byRecorderSession)
		res.Recorders = append(recs, upRecs...)
	}
	return res, nil
}

// byRecorderSession orders recorders by their globally-unique session
// index.
func byRecorderSession(a, b *timeline.Recorder) int { return cmp.Compare(a.Session(), b.Session()) }
