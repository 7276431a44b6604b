package jointabr

import (
	"testing"
	"testing/quick"
	"time"

	"demuxabr/internal/abr"
	"demuxabr/internal/media"
	"demuxabr/internal/netsim"
	"demuxabr/internal/player"
	"demuxabr/internal/trace"
)

func TestBolaJointSelectsFromAllowed(t *testing.T) {
	c := media.DramaShow()
	allowed := media.HSub(c)
	b := NewBolaJoint(abr.NewAllowed(allowed), 20*time.Second)
	inAllowed := func(cb media.Combo) bool {
		for _, a := range allowed {
			if a.String() == cb.String() {
				return true
			}
		}
		return false
	}
	for buf := time.Duration(0); buf <= 40*time.Second; buf += time.Second {
		got := b.SelectCombo(abr.State{VideoBuffer: buf, AudioBuffer: buf})
		if !inAllowed(got) {
			t.Fatalf("buffer %v: %s not allowed", buf, got)
		}
	}
}

// Property: BOLA-joint is monotone non-decreasing in the minimum buffer.
func TestBolaJointMonotoneProperty(t *testing.T) {
	c := media.DramaShow()
	b := NewBolaJoint(hsub(c), 25*time.Second)
	f := func(x, y uint16) bool {
		bx := time.Duration(x%60) * time.Second
		by := time.Duration(y%60) * time.Second
		if bx > by {
			bx, by = by, bx
		}
		lo := b.SelectCombo(abr.State{VideoBuffer: bx, AudioBuffer: bx})
		hi := b.SelectCombo(abr.State{VideoBuffer: by, AudioBuffer: by})
		return lo.DeclaredBitrate() <= hi.DeclaredBitrate()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBolaJointUsesMinBuffer(t *testing.T) {
	// The stalling quantity in demuxed streaming is the *minimum* of the
	// two buffers: a full audio buffer must not embolden the selection
	// when the video buffer is empty.
	c := media.DramaShow()
	b := NewBolaJoint(hsub(c), 20*time.Second)
	skewed := b.SelectCombo(abr.State{VideoBuffer: 0, AudioBuffer: 40 * time.Second})
	low := b.SelectCombo(abr.State{VideoBuffer: 0, AudioBuffer: 0})
	if skewed.DeclaredBitrate() != low.DeclaredBitrate() {
		t.Errorf("skewed buffers selected %s, want the empty-buffer choice %s", skewed, low)
	}
}

func TestBolaJointStreamsWithoutExcessStalls(t *testing.T) {
	c := media.DramaShow()
	eng := netsim.NewEngine()
	link := netsim.NewLink(eng, trace.Fixed(media.Kbps(900)))
	res, err := player.Run(link, player.Config{
		Content: c,
		Model:   NewBolaJoint(hsub(c), 20*time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ended {
		t.Fatal("did not finish")
	}
	if got := res.RebufferTime(); got > 5*time.Second {
		t.Errorf("rebuffer = %v on a steady 900 Kbps link", got)
	}
	if imb := res.MaxBufferImbalance(); imb > c.ChunkDuration {
		t.Errorf("imbalance = %v, want chunk-synced balance", imb)
	}
}

func TestBolaJointDefaults(t *testing.T) {
	c := media.DramaShow()
	b := NewBolaJoint(hsub(c), 0)
	if b.BufferTarget != 20*time.Second {
		t.Errorf("default buffer target = %v", b.BufferTarget)
	}
	if b.Name() != "bola-joint" {
		t.Errorf("name = %q", b.Name())
	}
	if len(b.Allowed()) != 6 {
		t.Errorf("allowed = %d", len(b.Allowed()))
	}
	defer func() {
		if recover() == nil {
			t.Error("empty allowed should panic")
		}
	}()
	NewBolaJoint(abr.NewAllowed(nil), 0)
}

func TestAbandonmentTriggersOnDoomedDownload(t *testing.T) {
	c := media.DramaShow()
	p := New(hsub(c), WithAbandonment())
	// A V6 chunk arriving at 200 Kbps with 4 s of buffer: remaining time
	// far exceeds the buffer; the player must bail to a cheaper track.
	repl := p.Abandon(abr.DownloadProgress{
		Type:       media.Video,
		Track:      c.VideoTracks[5],
		ChunkIndex: 10,
		BytesDone:  25_000, // 1 s at 200 Kbps
		BytesTotal: 1_700_000,
		Elapsed:    time.Second,
		Buffer:     4 * time.Second,
	})
	if repl == nil {
		t.Fatal("expected abandonment")
	}
	if repl.DeclaredBitrate >= c.VideoTracks[5].DeclaredBitrate {
		t.Errorf("replacement %s not cheaper than V6", repl.ID)
	}
}

func TestAbandonmentRespectsGuards(t *testing.T) {
	c := media.DramaShow()
	p := New(hsub(c), WithAbandonment())
	healthy := abr.DownloadProgress{
		Type:       media.Video,
		Track:      c.VideoTracks[2],
		BytesDone:  200_000,
		BytesTotal: 220_000,
		Elapsed:    time.Second,
		Buffer:     10 * time.Second,
	}
	if got := p.Abandon(healthy); got != nil {
		t.Errorf("healthy download abandoned to %s", got.ID)
	}
	doomed := abr.DownloadProgress{
		Type:       media.Video,
		Track:      c.VideoTracks[5],
		BytesDone:  25_000,
		BytesTotal: 1_700_000,
		Elapsed:    time.Second,
		Buffer:     2 * time.Second,
	}
	second := doomed
	second.Attempt = 1
	if got := p.Abandon(second); got != nil {
		t.Error("a chunk must be abandoned at most once per type")
	}
	early := doomed
	early.Elapsed = 100 * time.Millisecond
	if got := p.Abandon(early); got != nil {
		t.Error("abandonment needs a settled rate sample")
	}
	off := New(hsub(c))
	if got := off.Abandon(doomed); got != nil {
		t.Error("abandonment must be opt-in")
	}
}

func TestAbandonmentEndToEndReducesStalls(t *testing.T) {
	// A link that collapses mid-session: with abandonment the doomed
	// high-bitrate chunk is replaced and rebuffering shrinks.
	c := media.DramaShow()
	profile := trace.MustSteps([]trace.Step{
		{At: 0, Rate: media.Kbps(4000)},
		{At: 40 * time.Second, Rate: media.Kbps(250)},
		{At: 100 * time.Second, Rate: media.Kbps(2000)},
	}, 0)
	run := func(model abr.Algorithm) *player.Result {
		eng := netsim.NewEngine()
		link := netsim.NewLink(eng, profile)
		res, err := player.Run(link, player.Config{Content: c, Model: model})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	with := run(New(hsub(c), WithAbandonment()))
	without := run(New(hsub(c)))
	if !with.Ended || !without.Ended {
		t.Fatal("sessions did not finish")
	}
	if len(with.Abandonments) == 0 {
		t.Error("expected at least one abandonment on the collapsing link")
	}
	if with.RebufferTime() > without.RebufferTime() {
		t.Errorf("abandonment rebuffer %v > plain %v", with.RebufferTime(), without.RebufferTime())
	}
}
