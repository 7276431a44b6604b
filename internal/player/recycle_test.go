package player

import (
	"reflect"
	"testing"
	"time"

	"demuxabr/internal/faults"
	"demuxabr/internal/media"
	"demuxabr/internal/netsim"
	"demuxabr/internal/trace"
)

// runRecycled plays one session four ways and requires identical
// results: with request and transfer recycling off, with it on, on a pool
// an earlier run of the same session drained, so every record it starts
// from was bound to another session, and, as a fleet shard runs its
// cells, on that pool and an engine the earlier run drained and Reset, so
// its events and transfers were another session's too. A stale timer or
// callback that reached a record, transfer or event after its reuse, or
// state one carried from its previous session, would make a recycled run
// diverge (or double-fire a chunk). It returns the last run's result and
// session. play starts the session on the engine it is given (see
// startOn).
func runRecycled(t *testing.T, name string, play func(*Pool, *netsim.Engine) (*Session, *netsim.Engine)) (*Result, *Session) {
	t.Helper()
	defer func() { recycleRequests = true }()
	run := func(pool *Pool, eng *netsim.Engine) (*Result, *Session) {
		s, eng := play(pool, eng)
		if err := eng.Run(s.cfg.MaxEvents); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return s.Result(), s
	}
	recycleRequests = false
	want, _ := run(new(Pool), nil)
	recycleRequests = true
	fresh, _ := run(new(Pool), nil)
	if !reflect.DeepEqual(want, fresh) {
		t.Fatalf("%s: recycling changed the session:\nwithout %+v\nwith    %+v", name, want, fresh)
	}
	drained := new(Pool)
	run(drained, nil)
	if len(drained.reqs) == 0 {
		t.Fatalf("%s: the earlier session left no record in the pool", name)
	}
	res, _ := run(drained, nil)
	if !reflect.DeepEqual(want, res) {
		t.Fatalf("%s: a drained pool changed the session:\nfresh   %+v\ndrained %+v", name, want, res)
	}
	shard, eng := new(Pool), netsim.NewEngine()
	run(shard, eng)
	res, s := run(shard, eng)
	if !reflect.DeepEqual(want, res) {
		t.Fatalf("%s: a reset engine changed the session:\nfresh %+v\nreset %+v", name, want, res)
	}
	assertNoForkedChunks(t, name, res)
	return res, s
}

// startOn starts a session through pool on fresh links (split links when
// split is set). With a nil eng it makes a new engine, which the session
// stops when it ends. Otherwise it resets eng, which an earlier session
// left drained, and the engine runs until it drains again.
func startOn(t *testing.T, pool *Pool, eng *netsim.Engine, cfg Config, rate media.Bps, rtt time.Duration, split bool) (*Session, *netsim.Engine) {
	t.Helper()
	if eng == nil {
		eng = netsim.NewEngine()
		cfg.OnDone = func(*Session) { eng.Stop() }
	} else {
		eng.Reset()
	}
	video := netsim.NewLink(eng, trace.Fixed(rate))
	video.RTT = rtt
	audio := video
	if split {
		audio = netsim.NewLink(eng, trace.Fixed(rate))
		audio.RTT = rtt
	}
	s, err := pool.Start(video, audio, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, eng
}

// TestRecycledRecordsUnreachedByStaleTimers covers the three timers that
// outlive the request or transfer they refer to. A timeout that fires at
// the instant its transfer completes must act on the completed request
// only (the completion runs inside the timeout's cancel). A retry backoff
// that an audio reset voids still holds its record until it fires. An H1
// loss strike holds its transfer until it fires, even after the request
// has let go of it.
func TestRecycledRecordsUnreachedByStaleTimers(t *testing.T) {
	c := media.DramaShow()
	v, a := c.VideoTracks[0], c.AudioTracks[0]
	rate := media.Kbps(4000)

	t.Run("timeout racing completion", func(t *testing.T) {
		// Video alone on its link: chunk 0's transfer takes exactly the
		// time the link needs for its bytes, and the timeout is set to
		// that time, so the two land on one instant.
		size := c.ChunkSize(v, 0)
		eta := time.Duration(float64(size) * 8 / float64(rate) * float64(time.Second))
		pol := faults.DefaultPolicy()
		pol.RequestTimeout = eta
		res, s := runRecycled(t, "race", func(pool *Pool, eng *netsim.Engine) (*Session, *netsim.Engine) {
			return startOn(t, pool, eng, Config{
				Content: c, Model: &fixedPerType{video: v, audio: a}, Robustness: &pol,
			}, rate, 0, true)
		})
		var first *ChunkDecision
		for i := range res.Chunks {
			if ch := &res.Chunks[i]; ch.Type == media.Video && ch.Index == 0 {
				first = ch
				break
			}
		}
		if first == nil || first.CompletedAt != eta {
			t.Fatalf("video chunk 0 = %+v, want it completed at the timeout instant %v", first, eta)
		}
		if len(s.pool.reqs) == 0 {
			t.Fatal("no request record was recycled")
		}
	})

	t.Run("retry backoff across audio reset", func(t *testing.T) {
		var resets []time.Duration
		for at := 7 * time.Second; at < c.Duration; at += 7 * time.Second {
			resets = append(resets, at)
		}
		pol := faults.DefaultPolicy()
		for name, model := range map[string]Config{
			"per-type":    {Model: &fixedPerType{video: v, audio: a}},
			"sync-window": {Model: &fixedJoint{combo: lowestCombo(c)}, SyncWindow: 1},
		} {
			res, _ := runRecycled(t, name, func(pool *Pool, eng *netsim.Engine) (*Session, *netsim.Engine) {
				cfg := model
				cfg.Content = c
				cfg.AudioResets = resets
				cfg.FaultPlan = &faults.Plan{Seed: 3, Rate: 0.3, Kinds: []faults.Kind{faults.HTTP404}}
				cfg.Robustness = &pol
				return startOn(t, pool, eng, cfg, media.Kbps(5000), 100*time.Millisecond, false)
			})
			if res.Retries == 0 || len(res.AudioResets) == 0 || !res.Ended {
				t.Fatalf("%s: retries %d, resets %d, ended %v: the scenario no longer exercises backoff across resets",
					name, res.Retries, len(res.AudioResets), res.Ended)
			}
		}
	})

	t.Run("H1 strike", func(t *testing.T) {
		tc := netsim.DefaultTransport(netsim.H1)
		tc.LossRate = 0.5
		tc.Seed = 5
		pol := faults.DefaultPolicy()
		res, _ := runRecycled(t, "strike", func(pool *Pool, eng *netsim.Engine) (*Session, *netsim.Engine) {
			return startOn(t, pool, eng, Config{
				Content: c, Model: &fixedJoint{combo: lowestCombo(c)}, SyncWindow: 1,
				Transport: &tc, Robustness: &pol,
				FaultPlan: &faults.Plan{Seed: 9, Rate: 0.1, Kinds: []faults.Kind{faults.Reset, faults.Truncate, faults.HTTP503}},
			}, rate, 50*time.Millisecond, false)
		})
		if res.Transport == nil || res.Transport.HoLStalls == 0 || len(res.Faults) == 0 {
			t.Fatalf("transport %+v, %d faults: the scenario no longer strikes", res.Transport, len(res.Faults))
		}
	})
}

// TestWarmChunkRequestAllocFree pins the request lifecycle at zero
// allocations: once a session is warm (request records, transfers and
// events pooled, callbacks bound), a chunk request — decision, transfer,
// δ-samples, completion, the underrun alarm and logging ticks around it —
// allocates nothing, for the paired loop and for the per-type loops.
func TestWarmChunkRequestAllocFree(t *testing.T) {
	c := media.DramaShow()
	for name, model := range map[string]Config{
		"paired":   {Model: &fixedJoint{combo: lowestCombo(c)}},
		"per-type": {Model: &fixedPerType{video: c.VideoTracks[0], audio: c.AudioTracks[0]}},
	} {
		cfg := model
		cfg.Content = c
		s, eng := startOn(t, new(Pool), nil, cfg, media.Kbps(3000), 20*time.Millisecond, false)
		chunks := func(n int) {
			for len(s.res.Chunks) < n && eng.Step() {
			}
		}
		chunks(20)
		allocs := testing.AllocsPerRun(20, func() { chunks(len(s.res.Chunks) + 2) })
		if s.ended {
			t.Fatalf("%s: session ended during the measurement", name)
		}
		if allocs != 0 {
			t.Errorf("%s: a warm chunk request allocates %.2f objects, want 0", name, allocs)
		}
	}
}

// TestSharedPoolKeepsSessionsApart starts four sessions behind one
// uplink, staggered as in a fleet cell, through a Pool each, through one
// shared Pool, and as a fleet shard's second cell: through a Pool and on
// an engine that an earlier run of the cell drained, and Reset. The
// results must be identical, and after every event no request record may
// be reachable from two sessions: each live session's current records are
// bound to it, no two sessions share one, and none of them sits in the
// pool.
func TestSharedPoolKeepsSessionsApart(t *testing.T) {
	c := media.DramaShow()
	v, a := c.VideoTracks[0], c.AudioTracks[0]
	pol := faults.DefaultPolicy()
	h1 := netsim.DefaultTransport(netsim.H1)
	h1.LossRate, h1.Seed, h1.IdleTimeout = 0.3, 5, 700*time.Millisecond
	var resets []time.Duration
	for at := 7 * time.Second; at < c.Duration; at += 11 * time.Second {
		resets = append(resets, at)
	}
	plan := func(seed int64) *faults.Plan {
		return &faults.Plan{Seed: seed, Rate: 0.2, Kinds: []faults.Kind{faults.HTTP404, faults.Reset, faults.Truncate, faults.HTTP503}}
	}
	cfgs := []Config{
		{Model: &fixedPerType{video: v, audio: a}, FaultPlan: plan(1), Robustness: &pol, AudioResets: resets},
		{Model: &fixedJoint{combo: lowestCombo(c)}, SyncWindow: 1, Transport: &h1, FaultPlan: plan(2), Robustness: &pol},
		{Model: &fixedJoint{combo: lowestCombo(c)}, FaultPlan: plan(3), Robustness: &pol},
		{Model: &fixedPerType{video: c.VideoTracks[1], audio: a}, Transport: &h1, FaultPlan: plan(4), Robustness: &pol},
	}
	// play runs the cell on eng through pool, or through a Pool per
	// session when pool is nil.
	play := func(pool *Pool, eng *netsim.Engine) []*Result {
		eng.Reset()
		up := netsim.NewUplink(eng, trace.Fixed(media.Kbps(8000)))
		sessions := make([]*Session, len(cfgs))
		for i, cfg := range cfgs {
			p := pool
			if p == nil {
				p = new(Pool)
			}
			leaf := up.NewLeaf(trace.Fixed(media.Kbps(4000)))
			leaf.RTT = 50 * time.Millisecond
			cfg.Content = c
			eng.Schedule(time.Duration(i)*3*time.Second, func() {
				s, err := p.Start(leaf, leaf, cfg)
				if err != nil {
					t.Fatal(err)
				}
				sessions[i] = s
			})
		}
		for eng.Step() {
			owner := make(map[*request]*Session)
			for _, s := range sessions {
				if s == nil || s.ended {
					continue
				}
				for _, r := range s.current {
					if r == nil {
						continue
					}
					if r.s != s || r.refs <= 0 {
						t.Fatalf("at %v a current record is bound to %p with %d refs, want %p", eng.Now(), r.s, r.refs, s)
					}
					if other, ok := owner[r]; ok && other != s {
						t.Fatalf("at %v one record is current in two live sessions", eng.Now())
					}
					owner[r] = s
				}
			}
			if pool == nil {
				continue
			}
			for _, r := range pool.reqs {
				if owner[r] != nil || r.s != nil || r.refs != 0 {
					t.Fatalf("at %v a pooled record is bound to %p with %d refs", eng.Now(), r.s, r.refs)
				}
			}
		}
		out := make([]*Result, len(sessions))
		for i, s := range sessions {
			if !s.Done() {
				t.Fatalf("session %d did not finish", i)
			}
			out[i] = s.Result()
		}
		if pool != nil && len(pool.reqs) == 0 {
			t.Fatal("the shared pool recycled no record")
		}
		return out
	}
	own, shared := play(nil, netsim.NewEngine()), play(new(Pool), netsim.NewEngine())
	shardPool, shardEng := new(Pool), netsim.NewEngine()
	play(shardPool, shardEng)
	second := play(shardPool, shardEng)
	for i := range own {
		if !reflect.DeepEqual(own[i], shared[i]) {
			t.Fatalf("session %d: sharing the pool changed it:\nown    %+v\nshared %+v", i, own[i], shared[i])
		}
		if !reflect.DeepEqual(own[i], second[i]) {
			t.Fatalf("session %d: a reset engine changed it:\nown   %+v\nreset %+v", i, own[i], second[i])
		}
		assertNoForkedChunks(t, "shared pool", shared[i])
		assertNoForkedChunks(t, "reset engine", second[i])
	}
	if own[1].Transport == nil || own[1].Transport.HoLStalls == 0 || own[0].Retries == 0 {
		t.Fatal("the scenario no longer strikes or retries")
	}
}
