package jointabr

import (
	"testing"
	"time"

	"demuxabr/internal/abr"
	"demuxabr/internal/media"
	"demuxabr/internal/netsim"
	"demuxabr/internal/player"
	"demuxabr/internal/qoe"
	"demuxabr/internal/trace"
)

func TestVBRAwareUsesActualChunkSizes(t *testing.T) {
	c := media.ActionMovie()
	sizer := func(tr *media.Track, idx int) int64 { return c.ChunkSize(tr, idx) }
	v := NewVBRAware(hsub(c), sizer)
	feedVBR(v, 1.2e6, 6)
	// Find a spiky position: V4's peak chunks approach 1190 Kbps while its
	// declared average-based cost is 734. The VBR-aware player must select
	// lower on the expensive chunk than on a cheap one.
	expensive, cheap := -1, -1
	v4 := c.TrackByID("V4")
	for i := 0; i < c.NumChunks(); i++ {
		rate := float64(c.ChunkSize(v4, i)) * 8 / c.ChunkDurationAt(i).Seconds()
		if rate > 1.1e6 && expensive < 0 {
			expensive = i
		}
		if rate < 0.7e6 && cheap < 0 {
			cheap = i
		}
	}
	if expensive < 0 || cheap < 0 {
		t.Skip("chunk model produced no suitable spike; recalibrate test")
	}
	st := abr.State{VideoBuffer: 15 * time.Second, AudioBuffer: 15 * time.Second, ChunkDuration: 5 * time.Second}
	st.ChunkIndex = cheap
	onCheap := v.SelectCombo(st)
	v2 := NewVBRAware(hsub(c), sizer)
	feedVBR(v2, 1.2e6, 6)
	st.ChunkIndex = expensive
	onExpensive := v2.SelectCombo(st)
	if onExpensive.DeclaredBitrate() > onCheap.DeclaredBitrate() {
		t.Errorf("expensive chunk selected %s vs cheap chunk %s", onExpensive, onCheap)
	}
}

func feedVBR(v *VBRAware, bps float64, n int) {
	at := time.Duration(0)
	for i := 0; i < n; i++ {
		v.OnStart(abr.TransferInfo{At: at})
		v.OnProgress(abr.TransferInfo{Bytes: bps / 8, Duration: time.Second})
		at += time.Second
		v.OnComplete(abr.TransferInfo{Duration: time.Second, At: at})
	}
}

func TestVBRAwareEndToEndOnSpikyContent(t *testing.T) {
	// On the action movie (spiky VBR) at a tight rate, the VBR-aware player
	// must not rebuffer more than the declared-average player and must stay
	// on the allowed list.
	c := media.ActionMovie()
	sizer := func(tr *media.Track, idx int) int64 { return c.ChunkSize(tr, idx) }
	run := func(model abr.Algorithm) qoe.Metrics {
		eng := netsim.NewEngine()
		link := netsim.NewLink(eng, trace.Fixed(media.Kbps(1100)))
		res, err := player.Run(link, player.Config{Content: c, Model: model})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Ended {
			t.Fatal("did not finish")
		}
		return qoe.Compute(res, c, media.HSub(c), qoe.DefaultWeights())
	}
	vbr := run(NewVBRAware(hsub(c), sizer))
	avg := run(New(hsub(c)))
	if vbr.OffManifest != 0 {
		t.Errorf("VBR-aware off-manifest = %d", vbr.OffManifest)
	}
	if vbr.RebufferTime > avg.RebufferTime+2*time.Second {
		t.Errorf("VBR-aware rebuffer %v worse than declared-average %v", vbr.RebufferTime, avg.RebufferTime)
	}
	// Exploiting per-chunk sizes must not push the session to the stall
	// boundary...
	if vbr.BufferHealth.P10 < 2 {
		t.Errorf("VBR-aware buffer health p10 %.1f s: living at the stall boundary", vbr.BufferHealth.P10)
	}
	// ...and should buy at least the declared-average player's quality.
	if vbr.AvgVideoQuality+1e-9 < avg.AvgVideoQuality {
		t.Errorf("VBR-aware video quality %.2f below declared-average %.2f",
			vbr.AvgVideoQuality, avg.AvgVideoQuality)
	}
}

func TestVBRAwareValidation(t *testing.T) {
	c := media.DramaShow()
	sizer := func(tr *media.Track, idx int) int64 { return c.ChunkSize(tr, idx) }
	defer func() {
		if recover() == nil {
			t.Error("empty allowed should panic")
		}
	}()
	_ = NewVBRAware(hsub(c), sizer).Name()
	NewVBRAware(abr.NewAllowed(nil), sizer)
}

func TestVBRAwareNilSizerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil sizer should panic")
		}
	}()
	NewVBRAware(abr.NewAllowed(media.HSub(media.DramaShow())), nil)
}
