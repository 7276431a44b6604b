package jointabr

import (
	"testing"
	"time"

	"demuxabr/internal/abr"
	"demuxabr/internal/abr/dashjs"
	"demuxabr/internal/media"
	"demuxabr/internal/netsim"
	"demuxabr/internal/player"
	"demuxabr/internal/qoe"
	"demuxabr/internal/trace"
)

func TestDynamicJointSwitchover(t *testing.T) {
	c := media.DramaShow()
	d := NewDynamicJoint(hsub(c))
	if d.UsingBola() {
		t.Fatal("must start on THROUGHPUT")
	}
	// Feed a high estimate, then offer a deep buffer: BOLA takes over.
	at := time.Duration(0)
	for i := 0; i < 6; i++ {
		d.OnStart(abr.TransferInfo{At: at})
		d.OnProgress(abr.TransferInfo{Bytes: 250_000, Duration: time.Second})
		at += time.Second
		d.OnComplete(abr.TransferInfo{Duration: time.Second, At: at})
	}
	d.SelectCombo(abr.State{VideoBuffer: 20 * time.Second, AudioBuffer: 20 * time.Second, ChunkDuration: 5 * time.Second})
	if !d.UsingBola() {
		t.Error("expected BOLA above the enter threshold")
	}
	d.SelectCombo(abr.State{VideoBuffer: 2 * time.Second, AudioBuffer: 2 * time.Second, ChunkDuration: 5 * time.Second})
	if d.UsingBola() {
		t.Error("expected THROUGHPUT below the exit threshold")
	}
}

// TestJointnessIsolation is the controlled version of the §3.4 finding:
// the SAME rules (DYNAMIC) with the SAME thresholds, differing only in
// per-type independence, on the Fig 5 link. The joint variant must avoid
// the undesirable pairings and the buffer imbalance that define Fig 5.
func TestJointnessIsolation(t *testing.T) {
	c := media.DramaShow()
	run := func(model abr.Algorithm) qoe.Metrics {
		eng := netsim.NewEngine()
		link := netsim.NewLink(eng, trace.Fig5Bandwidth())
		res, err := player.Run(link, player.Config{Content: c, Model: model})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Ended {
			t.Fatal("did not finish")
		}
		return qoe.Compute(res, c, media.HSub(c), qoe.DefaultWeights())
	}
	joint := run(NewDynamicJoint(hsub(c)))
	independent := run(dashjs.New(c.VideoTracks, c.AudioTracks))

	if joint.OffManifest != 0 {
		t.Errorf("joint DYNAMIC selected %d off-manifest chunks", joint.OffManifest)
	}
	if independent.OffManifest == 0 {
		t.Error("independent DYNAMIC should stray off H_sub (it cannot know it)")
	}
	if joint.MaxImbalance > media.DramaChunkDuration+time.Second {
		t.Errorf("joint imbalance = %v, want <= one chunk", joint.MaxImbalance)
	}
	if independent.MaxImbalance <= joint.MaxImbalance {
		t.Errorf("independent imbalance %v <= joint %v",
			independent.MaxImbalance, joint.MaxImbalance)
	}
	if joint.Score <= independent.Score {
		t.Errorf("joint DYNAMIC QoE %.2f <= independent %.2f — jointness should be the winning variable",
			joint.Score, independent.Score)
	}
}

func TestDynamicJointValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty allowed should panic")
		}
	}()
	NewDynamicJoint(abr.NewAllowed(nil))
}
