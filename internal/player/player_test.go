package player

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"demuxabr/internal/abr"
	"demuxabr/internal/media"
	"demuxabr/internal/netsim"
	"demuxabr/internal/trace"
)

// fixedJoint always selects the same combination.
type fixedJoint struct {
	abr.NopObserver
	combo media.Combo
}

func (f *fixedJoint) Name() string                      { return "fixed-joint" }
func (f *fixedJoint) SelectCombo(abr.State) media.Combo { return f.combo }

// fixedPerType always selects the given per-type tracks.
type fixedPerType struct {
	abr.NopObserver
	video, audio *media.Track
}

func (f *fixedPerType) Name() string { return "fixed-pertype" }
func (f *fixedPerType) SelectTrack(t media.Type, _ abr.State) *media.Track {
	if t == media.Video {
		return f.video
	}
	return f.audio
}

func lowestCombo(c *media.Content) media.Combo {
	return media.Combo{Video: c.VideoTracks[0], Audio: c.AudioTracks[0]}
}

func runFixed(t *testing.T, c *media.Content, rate media.Bps, combo media.Combo) *Result {
	t.Helper()
	eng := netsim.NewEngine()
	link := netsim.NewLink(eng, trace.Fixed(rate))
	res, err := Run(link, Config{Content: c, Model: &fixedJoint{combo: combo}})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSmoothPlaybackNoStalls(t *testing.T) {
	c := media.DramaShow()
	res := runFixed(t, c, media.Kbps(10000), lowestCombo(c)) // ample bandwidth
	if !res.Ended {
		t.Fatal("playback did not end")
	}
	if len(res.Stalls) != 0 {
		t.Errorf("unexpected stalls: %v", res.Stalls)
	}
	if res.StartupDelay <= 0 || res.StartupDelay > 2*time.Second {
		t.Errorf("startup delay = %v, want small positive", res.StartupDelay)
	}
	wantChunks := 2 * c.NumChunks()
	if len(res.Chunks) != wantChunks {
		t.Errorf("chunks = %d, want %d", len(res.Chunks), wantChunks)
	}
}

// The fundamental session-time identity: wall time at playback end equals
// startup delay + content duration + total rebuffering.
func checkTimeIdentity(t *testing.T, res *Result) {
	t.Helper()
	if !res.Ended {
		t.Fatal("playback did not end")
	}
	want := res.StartupDelay + res.ContentDuration + res.RebufferTime()
	if diff := (res.EndedAt - want).Abs(); diff > time.Millisecond {
		t.Errorf("EndedAt = %v, want %v (startup %v + duration %v + rebuffer %v)",
			res.EndedAt, want, res.StartupDelay, res.ContentDuration, res.RebufferTime())
	}
}

func TestTimeIdentityNoStalls(t *testing.T) {
	c := media.DramaShow()
	checkTimeIdentity(t, runFixed(t, c, media.Kbps(10000), lowestCombo(c)))
}

func TestStallsWhenBandwidthInsufficient(t *testing.T) {
	c := media.DramaShow()
	// V6+A3 averages ~3.1 Mbps; a 1.5 Mbps link must stall, repeatedly.
	top := media.Combo{Video: c.VideoTracks[5], Audio: c.AudioTracks[2]}
	res := runFixed(t, c, media.Kbps(1500), top)
	if len(res.Stalls) == 0 {
		t.Fatal("expected stalls")
	}
	if res.RebufferTime() < 30*time.Second {
		t.Errorf("rebuffer = %v, want substantial (content needs ~2x link rate)", res.RebufferTime())
	}
	checkTimeIdentity(t, res)
	// Stalls must be disjoint and ordered.
	for i := 1; i < len(res.Stalls); i++ {
		if res.Stalls[i].Start < res.Stalls[i-1].End {
			t.Errorf("stalls overlap: %v then %v", res.Stalls[i-1], res.Stalls[i])
		}
	}
}

func TestDeadLinkAborts(t *testing.T) {
	c := media.DramaShow()
	eng := netsim.NewEngine()
	link := netsim.NewLink(eng, trace.Fixed(0))
	res, err := Run(link, Config{Content: c, Model: &fixedJoint{combo: lowestCombo(c)}, Deadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ended {
		t.Error("dead link should not finish playback")
	}
}

func TestBufferCapRespected(t *testing.T) {
	c := media.DramaShow()
	eng := netsim.NewEngine()
	link := netsim.NewLink(eng, trace.Fixed(media.Kbps(50000)))
	maxBuf := 20 * time.Second
	res, err := Run(link, Config{Content: c, Model: &fixedJoint{combo: lowestCombo(c)}, MaxBuffer: maxBuf, KeepTimeline: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timeline) == 0 {
		t.Fatal("no timeline samples to check")
	}
	cap := maxBuf + c.ChunkDuration + time.Second
	for _, s := range res.Timeline {
		if s.VideoBuffer > cap || s.AudioBuffer > cap {
			t.Fatalf("buffer exceeded cap at %v: video %v audio %v", s.At, s.VideoBuffer, s.AudioBuffer)
		}
	}
	checkTimeIdentity(t, res)
}

func TestIndependentSchedulerCompletes(t *testing.T) {
	c := media.DramaShow()
	eng := netsim.NewEngine()
	link := netsim.NewLink(eng, trace.Fixed(media.Kbps(5000)))
	model := &fixedPerType{video: c.VideoTracks[1], audio: c.AudioTracks[1]}
	res, err := Run(link, Config{Content: c, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	checkTimeIdentity(t, res)
	if got := len(res.ChunksOf(media.Video)); got != c.NumChunks() {
		t.Errorf("video chunks = %d, want %d", got, c.NumChunks())
	}
	if got := len(res.ChunksOf(media.Audio)); got != c.NumChunks() {
		t.Errorf("audio chunks = %d, want %d", got, c.NumChunks())
	}
}

func TestIndependentBuffersCanDiverge(t *testing.T) {
	// Audio is far cheaper than video: with independent loops on a tight
	// link, the audio buffer must run ahead of the video buffer (the
	// Fig 5(b) imbalance).
	c := media.DramaShow()
	eng := netsim.NewEngine()
	link := netsim.NewLink(eng, trace.Fixed(media.Kbps(900)))
	model := &fixedPerType{video: c.VideoTracks[2], audio: c.AudioTracks[2]}
	res, err := Run(link, Config{Content: c, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxBufferImbalance() < 3*time.Second {
		t.Errorf("imbalance = %v, want > 3s", res.MaxBufferImbalance())
	}
}

func TestSyncedBuffersStayBalanced(t *testing.T) {
	// Chunk-synced scheduling keeps the two buffers within one chunk of
	// each other — the §4 best-practice property.
	c := media.DramaShow()
	res := runFixed(t, c, media.Kbps(1200),
		media.Combo{Video: c.VideoTracks[2], Audio: c.AudioTracks[2]})
	if imb := res.MaxBufferImbalance(); imb > c.ChunkDuration {
		t.Errorf("synced imbalance = %v, want <= one chunk (%v)", imb, c.ChunkDuration)
	}
}

func TestConfigValidation(t *testing.T) {
	c := media.DramaShow()
	link := netsim.NewLink(netsim.NewEngine(), trace.Fixed(1))
	if _, err := Run(link, Config{Model: &fixedJoint{combo: lowestCombo(c)}}); err == nil {
		t.Error("nil content should fail")
	}
	if _, err := Run(link, Config{Content: c}); err == nil {
		t.Error("nil model should fail")
	}
	if _, err := Run(link, Config{Content: c, Model: &fixedJoint{combo: lowestCombo(c)}, StartupBuffer: time.Hour}); err == nil {
		t.Error("startup > max buffer should fail")
	}
}

type badModel struct{ abr.NopObserver }

func (badModel) Name() string { return "bad" }

func TestModelMustImplementADecisionInterface(t *testing.T) {
	c := media.DramaShow()
	link := netsim.NewLink(netsim.NewEngine(), trace.Fixed(1))
	if _, err := Run(link, Config{Content: c, Model: badModel{}}); err == nil {
		t.Error("model lacking decision interface should fail")
	}
}

func TestResultHelpers(t *testing.T) {
	c := media.DramaShow()
	res := runFixed(t, c, media.Kbps(10000),
		media.Combo{Video: c.VideoTracks[3], Audio: c.AudioTracks[1]})
	if got := res.Switches(media.Video); got != 0 {
		t.Errorf("switches = %d, want 0 for a fixed model", got)
	}
	combos := res.CombosSelected()
	if len(combos) != 1 || combos[0].String() != "V4+A2" {
		t.Errorf("combos = %v, want [V4+A2]", combos)
	}
	avg := res.AvgSelectedBitrate(media.Video, c.ChunkDurationAt)
	if math.Abs(avg.Kbps()-734) > 1 {
		t.Errorf("avg selected video bitrate = %v, want 734 Kbps", avg)
	}
}

func TestObserverSeesTransfers(t *testing.T) {
	c := media.DramaShow()
	obs := &countingModel{combo: lowestCombo(c)}
	eng := netsim.NewEngine()
	link := netsim.NewLink(eng, trace.Fixed(media.Kbps(2000)))
	res, err := Run(link, Config{Content: c, Model: obs})
	if err != nil {
		t.Fatal(err)
	}
	wantCompletes := len(res.Chunks)
	if obs.completes != wantCompletes {
		t.Errorf("OnComplete count = %d, want %d", obs.completes, wantCompletes)
	}
	if obs.starts != wantCompletes {
		t.Errorf("OnStart count = %d, want %d", obs.starts, wantCompletes)
	}
	if obs.progress == 0 {
		t.Error("expected progress samples")
	}
}

type countingModel struct {
	combo                       media.Combo
	starts, progress, completes int
}

func (m *countingModel) Name() string                      { return "counting" }
func (m *countingModel) SelectCombo(abr.State) media.Combo { return m.combo }
func (m *countingModel) OnStart(abr.TransferInfo)          { m.starts++ }
func (m *countingModel) OnProgress(abr.TransferInfo)       { m.progress++ }
func (m *countingModel) OnComplete(abr.TransferInfo)       { m.completes++ }

// Property: across random bandwidth walks the time identity holds, the
// timeline is monotone, and every chunk index is downloaded exactly once per
// type.
func TestSessionInvariantsProperty(t *testing.T) {
	c := media.DramaShow()
	f := func(seed int64) bool {
		profile := trace.RandomWalk(seed, media.Kbps(400), media.Kbps(3000), 4*time.Second, time.Minute)
		eng := netsim.NewEngine()
		link := netsim.NewLink(eng, profile)
		combo := media.Combo{Video: c.VideoTracks[1], Audio: c.AudioTracks[0]}
		res, err := Run(link, Config{Content: c, Model: &fixedJoint{combo: combo}, KeepTimeline: true})
		if err != nil || !res.Ended || len(res.Timeline) == 0 {
			return false
		}
		want := res.StartupDelay + res.ContentDuration + res.RebufferTime()
		if diff := (res.EndedAt - want).Abs(); diff > time.Millisecond {
			return false
		}
		for i := 1; i < len(res.Timeline); i++ {
			if res.Timeline[i].At < res.Timeline[i-1].At ||
				res.Timeline[i].PlayPos < res.Timeline[i-1].PlayPos {
				return false
			}
		}
		seen := map[media.Type]map[int]int{media.Video: {}, media.Audio: {}}
		for _, ch := range res.Chunks {
			seen[ch.Type][ch.Index]++
		}
		for _, m := range seen {
			if len(m) != c.NumChunks() {
				return false
			}
			for _, n := range m {
				if n != 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestMuxedModeZeroImbalance(t *testing.T) {
	c := media.DramaShow()
	eng := netsim.NewEngine()
	link := netsim.NewLink(eng, trace.Fixed(media.Kbps(1200)))
	combo := media.Combo{Video: c.VideoTracks[2], Audio: c.AudioTracks[1]}
	res, err := Run(link, Config{Content: c, Model: &fixedJoint{combo: combo}, Muxed: true})
	if err != nil {
		t.Fatal(err)
	}
	checkTimeIdentity(t, res)
	// Muxed packaging: the two frontiers advance together, so imbalance is
	// structurally zero.
	if imb := res.MaxBufferImbalance(); imb != 0 {
		t.Errorf("muxed imbalance = %v, want 0", imb)
	}
	if got := len(res.Chunks); got != 2*c.NumChunks() {
		t.Errorf("chunk log entries = %d, want %d", got, 2*c.NumChunks())
	}
}

func TestMuxedModeRequiresJoint(t *testing.T) {
	c := media.DramaShow()
	link := netsim.NewLink(netsim.NewEngine(), trace.Fixed(1))
	model := &fixedPerType{video: c.VideoTracks[0], audio: c.AudioTracks[0]}
	if _, err := Run(link, Config{Content: c, Model: model, Muxed: true}); err == nil {
		t.Error("muxed mode with a per-type model should fail")
	}
}

func TestSplitLinksRequireSameEngine(t *testing.T) {
	c := media.DramaShow()
	l1 := netsim.NewLink(netsim.NewEngine(), trace.Fixed(1))
	l2 := netsim.NewLink(netsim.NewEngine(), trace.Fixed(1))
	model := &fixedJoint{combo: lowestCombo(c)}
	if _, err := RunSplit(l1, l2, Config{Content: c, Model: model}); err == nil {
		t.Error("links on different engines should fail")
	}
}

func TestSplitLinksIsolateContention(t *testing.T) {
	// On split paths the audio stream does not steal video bandwidth: a
	// V5+A3 session over (2 Mbps video + 0.5 Mbps audio) plays clean,
	// while the same 2.5 Mbps as a single shared link is tighter because
	// concurrent transfers halve each other's rate mid-chunk.
	c := media.DramaShow()
	combo := media.Combo{Video: c.VideoTracks[4], Audio: c.AudioTracks[2]}
	eng := netsim.NewEngine()
	v := netsim.NewLink(eng, trace.Fixed(media.Kbps(2000)))
	a := netsim.NewLink(eng, trace.Fixed(media.Kbps(500)))
	res, err := RunSplit(v, a, Config{Content: c, Model: &fixedJoint{combo: combo}})
	if err != nil {
		t.Fatal(err)
	}
	checkTimeIdentity(t, res)
	if res.RebufferTime() > 2*time.Second {
		t.Errorf("split-path rebuffer = %v, want ~0 (V5 fits 2 Mbps, A3 fits 0.5 Mbps)", res.RebufferTime())
	}
}

func TestSyncWindowBoundsImbalance(t *testing.T) {
	// §4.2: synchronization "at the chunk level or in terms of a small
	// number of chunks". The skew bound must cap the buffer imbalance at
	// roughly window+1 chunks, and the imbalance must grow with the window.
	c := media.DramaShow()
	combo := media.Combo{Video: c.VideoTracks[2], Audio: c.AudioTracks[2]}
	runWin := func(w int) *Result {
		eng := netsim.NewEngine()
		link := netsim.NewLink(eng, trace.Fixed(media.Kbps(900)))
		res, err := Run(link, Config{Content: c, Model: &fixedJoint{combo: combo}, SyncWindow: w})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Ended {
			t.Fatal("did not finish")
		}
		return res
	}
	imb1 := runWin(1).MaxBufferImbalance()
	imb4 := runWin(4).MaxBufferImbalance()
	if imb1 > 2*c.ChunkDuration+time.Second {
		t.Errorf("window 1 imbalance = %v, want <= ~2 chunks", imb1)
	}
	if imb4 > 5*c.ChunkDuration+time.Second {
		t.Errorf("window 4 imbalance = %v, want <= ~5 chunks", imb4)
	}
	if imb4 <= imb1 {
		t.Errorf("imbalance should grow with the window: w1=%v w4=%v", imb1, imb4)
	}
}

func TestSyncWindowCompletesAllChunks(t *testing.T) {
	c := media.DramaShow()
	eng := netsim.NewEngine()
	link := netsim.NewLink(eng, trace.Fixed(media.Kbps(1500)))
	res, err := Run(link, Config{
		Content:    c,
		Model:      &fixedJoint{combo: media.Combo{Video: c.VideoTracks[1], Audio: c.AudioTracks[1]}},
		SyncWindow: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkTimeIdentity(t, res)
	for _, typ := range []media.Type{media.Video, media.Audio} {
		if got := len(res.ChunksOf(typ)); got != c.NumChunks() {
			t.Errorf("%s chunks = %d, want %d", typ, got, c.NumChunks())
		}
	}
}

func TestAudioResetDiscardsOnlyAudio(t *testing.T) {
	c := media.DramaShow()
	eng := netsim.NewEngine()
	link := netsim.NewLink(eng, trace.Fixed(media.Kbps(3000)))
	combo := media.Combo{Video: c.VideoTracks[2], Audio: c.AudioTracks[1]}
	res, err := Run(link, Config{
		Content:     c,
		Model:       &fixedJoint{combo: combo},
		SyncWindow:  1,
		AudioResets: []time.Duration{100 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkTimeIdentity(t, res)
	if len(res.AudioResets) != 1 {
		t.Fatalf("resets = %d, want 1", len(res.AudioResets))
	}
	r := res.AudioResets[0]
	if r.DiscardedBytes == 0 || r.DiscardedSeconds == 0 {
		t.Errorf("reset recorded no waste: %+v", r)
	}
	// The audio buffer was ~full (30 s); the discard must be in that
	// ballpark and the refetch must start near the playhead.
	if r.DiscardedSeconds < 15*time.Second || r.DiscardedSeconds > 36*time.Second {
		t.Errorf("discarded %v of audio, want roughly a full buffer", r.DiscardedSeconds)
	}
	playAt := 100*time.Second - res.StartupDelay
	refetchStart := time.Duration(r.RefetchFrom) * c.ChunkDuration
	if refetchStart < playAt-c.ChunkDuration || refetchStart > playAt+2*c.ChunkDuration {
		t.Errorf("refetch from %v, playhead was ~%v", refetchStart, playAt)
	}
	// Audio chunks from RefetchFrom on appear twice in the log.
	counts := map[int]int{}
	for _, ch := range res.ChunksOf(media.Audio) {
		counts[ch.Index]++
	}
	if counts[r.RefetchFrom+1] != 2 {
		t.Errorf("chunk %d fetched %d times, want 2", r.RefetchFrom+1, counts[r.RefetchFrom+1])
	}
	if counts[0] != 1 {
		t.Errorf("chunk 0 fetched %d times, want 1", counts[0])
	}
}

func TestAudioResetRequiresCapableScheduler(t *testing.T) {
	c := media.DramaShow()
	link := netsim.NewLink(netsim.NewEngine(), trace.Fixed(media.Kbps(1000)))
	_, err := Run(link, Config{
		Content:     c,
		Model:       &fixedJoint{combo: lowestCombo(c)},
		AudioResets: []time.Duration{10 * time.Second},
	})
	if err == nil {
		t.Error("strict joint scheduling with AudioResets should fail")
	}
}

func TestAudioResetMuxedDiscardsBoth(t *testing.T) {
	c := media.DramaShow()
	eng := netsim.NewEngine()
	link := netsim.NewLink(eng, trace.Fixed(media.Kbps(3000)))
	combo := media.Combo{Video: c.VideoTracks[2], Audio: c.AudioTracks[1]}
	res, err := Run(link, Config{
		Content:     c,
		Model:       &fixedJoint{combo: combo},
		Muxed:       true,
		AudioResets: []time.Duration{100 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkTimeIdentity(t, res)
	if len(res.AudioResets) != 1 {
		t.Fatalf("resets = %d", len(res.AudioResets))
	}
	// Muxed discard carries video bytes too: far larger than the audio-only
	// equivalent (V3 avg is ~1.8x A2).
	eng2 := netsim.NewEngine()
	link2 := netsim.NewLink(eng2, trace.Fixed(media.Kbps(3000)))
	demuxed, err := Run(link2, Config{
		Content:     c,
		Model:       &fixedJoint{combo: combo},
		SyncWindow:  1,
		AudioResets: []time.Duration{100 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AudioResets[0].DiscardedBytes <= demuxed.AudioResets[0].DiscardedBytes {
		t.Errorf("muxed discard %d <= demuxed %d",
			res.AudioResets[0].DiscardedBytes, demuxed.AudioResets[0].DiscardedBytes)
	}
}

func TestAudioResetInIndependentMode(t *testing.T) {
	c := media.DramaShow()
	eng := netsim.NewEngine()
	link := netsim.NewLink(eng, trace.Fixed(media.Kbps(3000)))
	model := &fixedPerType{video: c.VideoTracks[1], audio: c.AudioTracks[1]}
	res, err := Run(link, Config{
		Content:     c,
		Model:       model,
		AudioResets: []time.Duration{60 * time.Second, 180 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkTimeIdentity(t, res)
	if len(res.AudioResets) != 2 {
		t.Errorf("resets = %d, want 2", len(res.AudioResets))
	}
}

// Property: the session invariants hold for every scheduling discipline —
// strict pairing, bounded skew, and muxed — across random traces.
func TestSchedulerInvariantsProperty(t *testing.T) {
	c := media.DramaShow()
	combo := media.Combo{Video: c.VideoTracks[1], Audio: c.AudioTracks[1]}
	f := func(seed int64, mode uint8) bool {
		profile := trace.RandomWalk(seed, media.Kbps(500), media.Kbps(2500), 4*time.Second, time.Minute)
		cfg := Config{Content: c, Model: &fixedJoint{combo: combo}}
		switch mode % 3 {
		case 1:
			cfg.SyncWindow = int(mode)%4 + 1
		case 2:
			cfg.Muxed = true
		}
		eng := netsim.NewEngine()
		link := netsim.NewLink(eng, profile)
		res, err := Run(link, cfg)
		if err != nil || !res.Ended {
			return false
		}
		want := res.StartupDelay + res.ContentDuration + res.RebufferTime()
		if diff := (res.EndedAt - want).Abs(); diff > time.Millisecond {
			return false
		}
		for _, typ := range []media.Type{media.Video, media.Audio} {
			if len(res.ChunksOf(typ)) != c.NumChunks() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// assertNoForkedChunks fails if any (type, index) completed twice between
// two audio resets. A reset legitimately refetches discarded chunks, so
// completions are counted per reset epoch; within one, a second completion
// means two fetch chains ran for the same stream.
func assertNoForkedChunks(t *testing.T, name string, res *Result) {
	t.Helper()
	type pos struct {
		t     media.Type
		idx   int
		epoch int
	}
	seen := map[pos]bool{}
	for _, ch := range res.Chunks {
		epoch := 0
		for _, r := range res.AudioResets {
			if ch.CompletedAt > r.At {
				epoch++
			}
		}
		k := pos{ch.Type, ch.Index, epoch}
		if seen[k] {
			t.Errorf("%s: %s chunk %d completed twice", name, ch.Type, ch.Index)
		}
		seen[k] = true
	}
}

// A per-type stream runs one fetch chain. Two events re-enter a stream's
// loop from outside it, and either can start a second chain: an audio
// reset that restarts a loop waiting out a full buffer (the pending wake
// then fires into the restarted chain), and a live resync that leaves the
// stream's in-flight download alone. The sessions below hit both: every
// (type, index) may complete at most once per reset epoch.
func TestPerTypeStreamNeverForks(t *testing.T) {
	c := media.DramaShow()
	pinned := &fixedPerType{video: c.VideoTracks[1], audio: c.AudioTracks[0]}
	// VOD: the audio buffer sits at MaxBuffer when each reset fires.
	eng := netsim.NewEngine()
	link := netsim.NewLink(eng, trace.Fixed(media.Kbps(5000)))
	res, err := Run(link, Config{Content: c, Model: pinned, AudioResets: []time.Duration{60 * time.Second, 150 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	assertNoForkedChunks(t, "vod audio resets", res)

	// Live: pinned V2+A1 over random walks that dip below it, with a 200 ms
	// round trip, overrun the resync threshold.
	lc := &LiveConfig{LatencyTarget: 4 * time.Second, PartTarget: time.Second, ResyncThreshold: 12 * time.Second}
	resyncs := 0
	for seed := int64(1); seed <= 8; seed++ {
		eng := netsim.NewEngine()
		link := netsim.NewLink(eng, trace.RandomWalk(seed, media.Kbps(250), media.Kbps(1000), 5*time.Second, 5*time.Minute))
		link.RTT = 200 * time.Millisecond
		res, err := Run(link, Config{Content: c, Model: pinned, Live: lc})
		if err != nil {
			t.Fatal(err)
		}
		resyncs += res.Live.Resyncs
		assertNoForkedChunks(t, fmt.Sprintf("live seed %d", seed), res)
	}
	if resyncs == 0 {
		t.Fatal("no live session resynced; the test no longer exercises the resync path")
	}
}
