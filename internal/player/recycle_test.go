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

// runRecycled plays one session twice, with request and transfer
// recycling on and off, and requires identical results: a stale timer or
// callback that reached a record or transfer after its reuse would make
// the recycled run diverge (or double-fire a chunk). It returns the
// recycled run's result and session.
func runRecycled(t *testing.T, name string, play func() (*Session, *netsim.Engine)) (*Result, *Session) {
	t.Helper()
	defer func() { recycleRequests = true }()
	var results [2]*Result
	var sessions [2]*Session
	for i, on := range []bool{false, true} {
		recycleRequests = on
		s, eng := play()
		if err := eng.Run(s.cfg.MaxEvents); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		results[i], sessions[i] = s.Result(), s
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Fatalf("%s: recycling changed the session:\nwithout %+v\nwith    %+v", name, results[0], results[1])
	}
	assertNoForkedChunks(t, name, results[1])
	return results[1], sessions[1]
}

// startOn starts a session on a fresh engine and link (split links when
// split is set) and stops the engine when it ends.
func startOn(t *testing.T, cfg Config, rate media.Bps, rtt time.Duration, split bool) (*Session, *netsim.Engine) {
	t.Helper()
	eng := netsim.NewEngine()
	video := netsim.NewLink(eng, trace.Fixed(rate))
	video.RTT = rtt
	audio := video
	if split {
		audio = netsim.NewLink(eng, trace.Fixed(rate))
		audio.RTT = rtt
	}
	cfg.OnDone = func(*Session) { eng.Stop() }
	s, err := Start(video, audio, cfg)
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
		res, s := runRecycled(t, "race", func() (*Session, *netsim.Engine) {
			return startOn(t, Config{
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
		if len(s.freeReqs) == 0 {
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
			res, _ := runRecycled(t, name, func() (*Session, *netsim.Engine) {
				cfg := model
				cfg.Content = c
				cfg.AudioResets = resets
				cfg.FaultPlan = &faults.Plan{Seed: 3, Rate: 0.3, Kinds: []faults.Kind{faults.HTTP404}}
				cfg.Robustness = &pol
				return startOn(t, cfg, media.Kbps(5000), 100*time.Millisecond, false)
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
		res, _ := runRecycled(t, "strike", func() (*Session, *netsim.Engine) {
			return startOn(t, Config{
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
		s, eng := startOn(t, cfg, media.Kbps(3000), 20*time.Millisecond, false)
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
