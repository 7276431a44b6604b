package player

import (
	"reflect"
	"testing"
	"time"

	"demuxabr/internal/media"
	"demuxabr/internal/netsim"
	"demuxabr/internal/trace"
)

// runLive plays content through a fixed-combo model with live mode on.
func runLive(t *testing.T, c *media.Content, p trace.Profile, lc *LiveConfig) *Result {
	t.Helper()
	eng := netsim.NewEngine()
	link := netsim.NewLink(eng, p)
	res, err := Run(link, Config{Content: c, Model: &fixedJoint{combo: lowestCombo(c)}, Live: lc})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// VOD sessions must carry no live accounting at all — the nil pointer is
// the zero-cost contract the reports build on.
func TestLiveOffLeavesNoStats(t *testing.T) {
	c := media.DramaShow()
	res := runFixed(t, c, media.Kbps(10000), lowestCombo(c))
	if res.Live != nil {
		t.Fatalf("VOD session carried live stats: %+v", res.Live)
	}
}

// A live session joins LatencyTarget behind the edge, snapped down to a
// chunk boundary: join latency lands in [target, target + chunk).
func TestLiveJoinAtEdge(t *testing.T) {
	c := media.DramaShow()
	lc := &LiveConfig{LatencyTarget: 4 * time.Second, PartTarget: time.Second}
	res := runLive(t, c, trace.Fixed(media.Kbps(10000)), lc)
	if res.Live == nil {
		t.Fatal("live session carried no live stats")
	}
	if jl := res.Live.JoinLatency; jl < lc.LatencyTarget || jl >= lc.LatencyTarget+c.ChunkDuration {
		t.Errorf("join latency %v outside [%v, %v)", jl, lc.LatencyTarget, lc.LatencyTarget+c.ChunkDuration)
	}
	if res.Live.LatencyTarget != lc.LatencyTarget {
		t.Errorf("latency target %v, want %v", res.Live.LatencyTarget, lc.LatencyTarget)
	}
}

// Availability gating: even with ample bandwidth a live session cannot
// outrun the encoder, so the session's wall clock is pinned to real time —
// it ends no earlier than the stream's own remaining duration.
func TestLiveAvailabilityGatesRealTime(t *testing.T) {
	c := media.DramaShow()
	lc := &LiveConfig{LatencyTarget: 4 * time.Second, PartTarget: time.Second, EdgeAtJoin: 60 * time.Second}
	res := runLive(t, c, trace.Fixed(media.Kbps(50000)), lc)
	if !res.Ended {
		t.Fatal("live session did not end")
	}
	remaining := c.Duration - 60*time.Second
	if res.EndedAt < remaining {
		t.Errorf("session ended at %v, before the stream could produce its remaining %v", res.EndedAt, remaining)
	}
	if res.Live.Samples == 0 {
		t.Error("controller never sampled latency")
	}
}

// With bandwidth headroom the controller holds latency near the target:
// no resyncs, max latency well inside the resync threshold, and a mean
// close to the target.
func TestLiveLatencyHeldNearTarget(t *testing.T) {
	c := media.DramaShow()
	lc := &LiveConfig{LatencyTarget: 4 * time.Second, PartTarget: time.Second}
	res := runLive(t, c, trace.Fixed(media.Kbps(10000)), lc)
	l := res.Live
	if l.Resyncs != 0 {
		t.Errorf("unexpected resyncs: %d", l.Resyncs)
	}
	if err := l.MeanLatency - lc.LatencyTarget; err < -time.Second || err > 2*time.Second {
		t.Errorf("mean latency %v strays from target %v", l.MeanLatency, lc.LatencyTarget)
	}
	if l.MaxLatency >= 4*lc.LatencyTarget {
		t.Errorf("max latency %v reached the resync threshold", l.MaxLatency)
	}
	if l.MeanRate < 0.92 || l.MeanRate > 1.08 {
		t.Errorf("mean rate %.4f outside the configured envelope", l.MeanRate)
	}
}

// CMAF parts lower the achievable latency floor: the same session without
// parts (whole-segment availability) must sit measurably further behind
// the edge, and stall more on the availability gate.
func TestLivePartsLowerLatencyFloor(t *testing.T) {
	c := media.DramaShow()
	parts := runLive(t, c, trace.Fixed(media.Kbps(10000)),
		&LiveConfig{LatencyTarget: 3 * time.Second, PartTarget: time.Second})
	whole := runLive(t, c, trace.Fixed(media.Kbps(10000)),
		&LiveConfig{LatencyTarget: 3 * time.Second})
	if parts.Live.MeanLatency >= whole.Live.MeanLatency {
		t.Errorf("parts did not lower latency: %v (parts) vs %v (whole-segment)",
			parts.Live.MeanLatency, whole.Live.MeanLatency)
	}
	if len(parts.Stalls) >= len(whole.Stalls) {
		t.Errorf("parts did not reduce availability stalls: %d (parts) vs %d (whole-segment)",
			len(parts.Stalls), len(whole.Stalls))
	}
}

// The catch-up controller must actually work the rate: under latency
// pressure the session spends time above 1.0x and records rate changes.
func TestLiveRateAdaptation(t *testing.T) {
	c := media.DramaShow()
	// A modest trough builds some latency to catch up from afterwards.
	p := trace.SquareWave(media.Kbps(5000), media.Kbps(300), 40*time.Second, 10*time.Second)
	res := runLive(t, c, p, &LiveConfig{LatencyTarget: 4 * time.Second, PartTarget: time.Second})
	l := res.Live
	if l.RateChanges == 0 {
		t.Error("controller never changed the playback rate")
	}
	if l.CatchupTime == 0 {
		t.Error("session under latency pressure never played above 1.0x")
	}
	if l.MeanRate <= 1.0 {
		t.Errorf("mean rate %.4f not above 1.0 despite latency pressure", l.MeanRate)
	}
}

// A bandwidth collapse deep enough to blow past the resync threshold must
// trigger the live-edge jump: the player discards the backlog, re-acquires
// the edge, and still finishes the session.
func TestLiveResyncOnOverrun(t *testing.T) {
	c := media.DramaShow()
	// 30 s at 50 Kbps: even the lowest combo cannot move, latency grows by
	// ~30 s, far past the 8 s threshold (4x the 2 s target).
	p := trace.SquareWave(media.Kbps(8000), media.Kbps(50), 60*time.Second, 30*time.Second)
	res := runLive(t, c, p, &LiveConfig{LatencyTarget: 2 * time.Second, PartTarget: time.Second})
	l := res.Live
	if l.Resyncs == 0 {
		t.Fatal("no resync despite a 30 s outage against an 8 s threshold")
	}
	if l.SkippedTime <= 0 {
		t.Errorf("resync discarded no media: skipped %v", l.SkippedTime)
	}
	if !res.Ended {
		t.Errorf("session did not recover: aborted=%v reason=%q", res.Aborted, res.AbortReason)
	}
	if l.MaxLatency < 8*time.Second {
		t.Errorf("max latency %v never reached the resync threshold", l.MaxLatency)
	}
	// The skipped media is gone: played chunks must be fewer than the
	// content total on at least one track.
	if got := len(res.Chunks); got >= 2*c.NumChunks() {
		t.Errorf("resync session still fetched all %d chunks", got)
	}
}

// Live sessions are as deterministic as VOD ones: identical configs produce
// identical results.
func TestLiveDeterministic(t *testing.T) {
	c := media.DramaShow()
	p := trace.SquareWave(media.Kbps(5000), media.Kbps(300), 40*time.Second, 10*time.Second)
	lc := &LiveConfig{LatencyTarget: 4 * time.Second, PartTarget: time.Second}
	a := runLive(t, c, p, lc)
	b := runLive(t, c, p, lc)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical live runs produced different results")
	}
}

// Config validation: malformed live configs must fail Start, not corrupt a
// session.
func TestLiveConfigValidation(t *testing.T) {
	c := media.DramaShow()
	for name, lc := range map[string]*LiveConfig{
		"negative target":    {LatencyTarget: -time.Second},
		"part exceeds chunk": {PartTarget: c.ChunkDuration + time.Second},
		"negative part":      {PartTarget: -time.Second},
	} {
		eng := netsim.NewEngine()
		link := netsim.NewLink(eng, trace.Fixed(media.Kbps(5000)))
		_, err := Start(link, link, Config{Content: c, Model: &fixedJoint{combo: lowestCombo(c)}, Live: lc})
		if err == nil {
			t.Errorf("%s: Start accepted an invalid live config", name)
		}
	}
}
