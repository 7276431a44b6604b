package player

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"demuxabr/internal/abr"
	"demuxabr/internal/faults"
	"demuxabr/internal/ledger"
	"demuxabr/internal/media"
	"demuxabr/internal/netsim"
	"demuxabr/internal/timeline"
	"demuxabr/internal/trace"
)

// runRecycled plays one session five ways and requires identical
// results: with request and transfer recycling off, with it on, on a pool
// an earlier run of the same session drained, so every record it starts
// from was bound to another session, as a fleet shard runs its cells, on
// that pool and an engine the earlier run drained and Reset, so its events
// and transfers were another session's too, and on a Session object that
// an earlier, different session finished and Pool.Release handed back
// (see dirtyPredecessors). A stale timer or callback that reached a
// record, transfer or event after its reuse, or state one carried from
// its previous session, would make a recycled run diverge (or double-fire
// a chunk). Every way must also start in the same state, and give the
// same Result JSON and recorder events when play attaches a recorder. It
// returns the fourth way's result and session. play starts the session on
// the engine it is given (see startOn).
func runRecycled(t *testing.T, name string, play func(*Pool, *netsim.Engine) (*Session, *netsim.Engine)) (*Result, *Session) {
	t.Helper()
	defer func() { recycleRequests = true }()
	var want *Result
	var wantState sessionStart
	var wantJSON []byte
	var wantEvents []timeline.Event
	run := func(way string, pool *Pool, eng *netsim.Engine) (*Result, *Session) {
		t.Helper()
		s, eng := play(pool, eng)
		state := startState(s)
		if err := eng.Run(s.cfg.MaxEvents); err != nil {
			t.Fatalf("%s (%s): %v", name, way, err)
		}
		res := s.Result()
		js, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		events := s.rec.Events()
		if want == nil {
			want, wantState, wantJSON, wantEvents = res, state, js, events
			return res, s
		}
		if !reflect.DeepEqual(wantState, state) {
			t.Fatalf("%s: %s starts in another state:\nfresh %+v\n%s %+v", name, way, wantState, way, state)
		}
		if !reflect.DeepEqual(want, res) {
			t.Fatalf("%s: %s changed the session:\nfresh %+v\n%s %+v", name, way, want, way, res)
		}
		if !bytes.Equal(wantJSON, js) {
			t.Fatalf("%s: %s changed the result JSON:\nfresh %s\n%s %s", name, way, wantJSON, way, js)
		}
		if !reflect.DeepEqual(wantEvents, events) {
			t.Fatalf("%s: %s changed the recorded events (%d, want %d)", name, way, len(events), len(wantEvents))
		}
		return res, s
	}
	recycleRequests = false
	run("no recycling", new(Pool), nil)
	recycleRequests = true
	run("recycling", new(Pool), nil)
	drained := new(Pool)
	run("the earlier run", drained, nil)
	if len(drained.reqs) == 0 {
		t.Fatalf("%s: the earlier session left no record in the pool", name)
	}
	run("a drained pool", drained, nil)
	shard, eng := new(Pool), netsim.NewEngine()
	run("the earlier cell", shard, eng)
	res, s := run("a reset engine", shard, eng)
	assertNoForkedChunks(t, name, res)

	for _, pred := range dirtyPredecessors(t) {
		pool, eng := new(Pool), netsim.NewEngine()
		prev := pred.run(t, pool, eng)
		pool.Release()
		way := "a session released by a " + pred.name + " session"
		next, _ := run(way, pool, eng)
		if next != &prev.res {
			t.Fatalf("%s: %s ran on a new Session object", name, way)
		}
	}
	return res, s
}

// startState is s as start left it, without what legitimately differs
// between runs: the engine, links, pool and spare parts it was given, the
// model and recorder, and the bound method values and lanes. What s
// points to that the run goes on to change is copied.
func startState(s *Session) sessionStart {
	st := sessionStart{s: *s, comboFor: maps.Clone(s.comboFor), blacklistEmpty: s.blacklist == nil ||
		reflect.DeepEqual(s.blacklist, faults.NewBlacklist())}
	c := &st.s
	c.cfg, c.eng, c.links, c.pool, c.spare = Config{}, nil, [2]*netsim.Link{}, nil, nil
	c.joint, c.perType, c.abandoner, c.rec = nil, nil, nil, nil
	c.jointLoop, c.jointCont, c.streamLoop, c.streamCont = nil, nil, [2]func(){}, [2]func(){}
	c.logTick, c.underrunTick = nil, nil
	c.timeoutLane, c.logLane = nil, nil
	c.comboFor, c.blacklist, c.conns, c.live = nil, nil, [2]*netsim.Conn{}, nil
	// A log a reused Session hands out is empty, not nil; teardown makes it
	// nil again if it stays empty.
	r := &c.res
	r.Stalls, r.Timeline, r.Chunks = emptyNil(r.Stalls), emptyNil(r.Timeline), emptyNil(r.Chunks)
	r.Abandonments, r.AudioResets = emptyNil(r.Abandonments), emptyNil(r.AudioResets)
	r.Faults, r.Failovers, r.buffers.mins = emptyNil(r.Faults), emptyNil(r.Failovers), emptyNil(r.buffers.mins)
	if s.pol != nil {
		st.pol = *s.pol
	}
	if s.live != nil {
		st.live = *s.live
		st.live.tick, st.live.lane = nil, nil
	}
	for i, conn := range s.conns {
		if conn != nil {
			st.conns[i] = connStart{conn.Stats(), conn.Established(), conn.Protocol()}
		}
	}
	return st
}

// emptyNil returns nil for an empty log, else the log.
func emptyNil[T any](log []T) []T {
	if len(log) == 0 {
		return nil
	}
	return log
}

// sessionStart is a session's state at start (see startState).
type sessionStart struct {
	s              Session
	comboFor       map[int]media.Combo
	blacklistEmpty bool
	pol            faults.Policy
	live           liveState
	conns          [2]connStart
}

// connStart is a connection's state at the start of a session.
type connStart struct {
	stats       netsim.ConnStats
	established bool
	protocol    netsim.Protocol
}

// predecessor is a session that runs on a Pool, on an engine it drains,
// before the session under test reuses its Session object.
type predecessor struct {
	name string
	run  func(t *testing.T, pool *Pool, eng *netsim.Engine) *Session
}

// dirtyPredecessors are the earlier, different sessions runRecycled's
// fifth way runs first. Between them they leave every part a Session
// object keeps dirty: every Result log non-empty, a windowed decision map
// with entries, connections with handshakes and stalls, a blacklist with
// strikes and exiles, generations bumped by resets, live controller state,
// and loops of both kinds bound. Each checks that it did.
func dirtyPredecessors(t *testing.T) []predecessor {
	c := media.DramaShow()
	run := func(t *testing.T, pool *Pool, eng *netsim.Engine, cfg Config, rate media.Bps) *Session {
		t.Helper()
		s, eng := startOn(t, pool, eng, cfg, rate, 150*time.Millisecond, false)
		if err := eng.Run(s.cfg.MaxEvents); err != nil {
			t.Fatal(err)
		}
		return s
	}
	return []predecessor{
		{"windowed, faulted, H1", func(t *testing.T, pool *Pool, eng *netsim.Engine) *Session {
			pol := faults.DefaultPolicy()
			h1 := netsim.DefaultTransport(netsim.H1)
			h1.LossRate, h1.Seed, h1.IdleTimeout = 0.3, 3, 700*time.Millisecond
			var resets []time.Duration
			for at := 9 * time.Second; at < c.Duration; at += 23 * time.Second {
				resets = append(resets, at)
			}
			s := run(t, pool, eng, Config{
				Content: c, Model: &fixedJoint{combo: media.Combo{Video: c.VideoTracks[len(c.VideoTracks)-1], Audio: c.AudioTracks[0]}},
				SyncWindow: 2, AudioResets: resets, Robustness: &pol, Transport: &h1,
				FaultPlan: &faults.Plan{Seed: 4, Rate: 0.25, Kinds: append(faults.AllKinds(), faults.TransportKinds()...)},
			}, media.Kbps(2500))
			r := s.Result()
			if len(r.Stalls) == 0 || len(r.Faults) == 0 || len(r.Failovers) == 0 || len(r.AudioResets) == 0 ||
				len(s.comboFor) == 0 || reflect.DeepEqual(s.blacklist, faults.NewBlacklist()) || s.gen[media.Audio] == 0 ||
				r.Transport == nil || r.Transport.HoLStalls == 0 || len(r.Chunks) == 0 {
				t.Fatalf("the windowed predecessor no longer dirties every part: %d stalls, %d faults, %d failovers, %d resets, %d decisions, gen %v, transport %+v",
					len(r.Stalls), len(r.Faults), len(r.Failovers), len(r.AudioResets), len(s.comboFor), s.gen, r.Transport)
			}
			return s
		}},
		{"live, abandoning", func(t *testing.T, pool *Pool, eng *netsim.Engine) *Session {
			s := run(t, pool, eng, Config{
				Content: c, Model: &abandoning{fixedPerType{video: c.VideoTracks[len(c.VideoTracks)-1], audio: c.AudioTracks[0]}, c.VideoTracks[0]},
				Live: &LiveConfig{LatencyTarget: 3 * time.Second, PartTarget: time.Second, ResyncThreshold: 6 * time.Second},
			}, media.Kbps(1500))
			r := s.Result()
			if r.Live == nil || r.Live.Resyncs == 0 || len(r.Abandonments) == 0 || len(r.Stalls) == 0 {
				t.Fatalf("the live predecessor no longer dirties its parts: live %+v, %d abandonments, %d stalls", r.Live, len(r.Abandonments), len(r.Stalls))
			}
			return s
		}},
	}
}

// abandoning is a per-type model that abandons its video download of
// every third chunk, after 300 ms, for the low track.
type abandoning struct {
	fixedPerType
	low *media.Track
}

func (a *abandoning) Abandon(dp abr.DownloadProgress) *media.Track {
	if dp.Type != media.Video || dp.Attempt > 0 || dp.ChunkIndex%3 != 0 || dp.Elapsed < 300*time.Millisecond {
		return nil
	}
	return a.low
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
	pins := ledger.For(t)
	c := media.DramaShow()
	for name, model := range map[string]Config{
		"paired":   {Model: &fixedJoint{combo: lowestCombo(c)}},
		"per-type": {Model: &fixedPerType{video: c.VideoTracks[0], audio: c.AudioTracks[0]}},
	} {
		pin := pins.Bound(name, "allocs")
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
		if allocs > pin {
			t.Errorf("%s: a warm chunk request allocates %.2f objects, pinned at %.0f", name, allocs, pin)
		}
	}
}

// TestSessionSizeClasses pins a Session's footprint to Go's malloc size
// classes. An object over 512 bytes that holds pointers carries an 8-byte
// header, and is rounded up to the next class: 1,024, 1,152, ..., 1,536,
// 1,792. A Pool allocates a pooledSession for every session it has no
// released one for (each Play, and each cold session of a fleet shard),
// and one byte past 1,536 would land it in the 1,792-byte class, 256 bytes
// more per session. Let it cross the class boundary only on purpose: the
// class is a row of the ratchet ledger (docs/PERFORMANCE.md).
func TestSessionSizeClasses(t *testing.T) {
	const header = 8
	class := ledger.For(t).Bound("pooledSession", "size-class")
	if n := unsafe.Sizeof(pooledSession{}) + header; float64(n) > class {
		t.Errorf("pooledSession needs %d bytes with its header, over the %.0f-byte size class", n, class)
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

// TestReleasePanicsWithSessionRunning: Release hands a pool's sessions to
// later Starts, so releasing one that still runs would leave one Session
// object in the hands of two sessions. Release refuses, and names the
// running session as the reason.
func TestReleasePanicsWithSessionRunning(t *testing.T) {
	c := media.DramaShow()
	pool, eng := new(Pool), netsim.NewEngine()
	done, _ := startOn(t, pool, eng, Config{Content: c, Model: &fixedJoint{combo: lowestCombo(c)}}, media.Kbps(3000), 0, false)
	if err := eng.Run(done.cfg.MaxEvents); err != nil {
		t.Fatal(err)
	}
	running, _ := startOn(t, pool, eng, Config{Content: c, Model: &fixedJoint{combo: lowestCombo(c)}}, media.Kbps(3000), 0, false)
	eng.RunUntil(20 * time.Second)
	if !done.Done() || running.Done() {
		t.Fatalf("done %v, running %v: want the first session finished and the second running", done.Done(), running.Done())
	}
	msg := releasePanic(pool)
	if !strings.Contains(msg, "still running") {
		t.Fatalf("Release with a session running: panic %q, want one naming the running session", msg)
	}
}

// TestReleasePanicsWithEventsPending: a session is Done once OnDone has
// fired, but its logging tick and voided timers stay queued until the
// engine reaches them. Released from OnDone, the Session object would
// take them into its next session, so Release refuses while its engine
// has events pending.
func TestReleasePanicsWithEventsPending(t *testing.T) {
	c := media.DramaShow()
	pool, eng := new(Pool), netsim.NewEngine()
	var msg string
	cfg := Config{Content: c, Model: &fixedJoint{combo: lowestCombo(c)}}
	cfg.OnDone = func(*Session) { msg = releasePanic(pool) }
	s, _ := startOn(t, pool, eng, cfg, media.Kbps(3000), 0, false)
	if err := eng.Run(s.cfg.MaxEvents); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(msg, "events pending") {
		t.Fatalf("Release from OnDone: panic %q, want one naming the pending events", msg)
	}
	pool.Release() // the engine has drained: now it may
}

// releasePanic calls pool.Release and returns what it panicked with, or ""
// if it did not.
func releasePanic(pool *Pool) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	pool.Release()
	return ""
}
