package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"demuxabr/internal/netsim"
)

// TestLiveComparisonDeterminism pins the byte-identical contract for the
// live families: neither the worker count nor the repetition may change a
// single byte of the rendered report.
func TestLiveComparisonDeterminism(t *testing.T) {
	serial, err := LiveComparison(1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := LiveComparison(0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("live comparison differs between serial and parallel runs")
	}
	tserial, err := LiveTransport(1)
	if err != nil {
		t.Fatal(err)
	}
	tparallel, err := LiveTransport(0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tserial, tparallel) {
		t.Fatal("live transport comparison differs between serial and parallel runs")
	}
	again, err := LiveComparison(0)
	if err != nil {
		t.Fatal(err)
	}
	tagain, err := LiveTransport(0)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	PrintLive(&a, parallel, tparallel)
	PrintLive(&b, again, tagain)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("live report is not byte-identical across repeats")
	}
}

// TestLiveModelOrdering is the acceptance check for the low-latency trio:
// LoL+ holds latency closest to target with the fewest stalls, L2A sits
// between on both axes (it buys latency with extra down-switches and
// stalls), and the latency-blind default drifts furthest while keeping the
// most video quality.
func TestLiveModelOrdering(t *testing.T) {
	cells, err := LiveComparison(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(LiveModels()) {
		t.Fatalf("got %d cells, want %d", len(cells), len(LiveModels()))
	}
	byModel := map[string]LiveCell{}
	for _, c := range cells {
		byModel[string(c.Model)] = c
	}
	def, l2a, lolp := byModel["ll-default"], byModel["ll-l2a"], byModel["ll-lolp"]
	t.Logf("default: err=%v stalls=%d vq=%.2f | l2a: err=%v stalls=%d vq=%.2f | lolp: err=%v stalls=%d vq=%.2f",
		def.LatencyError(), def.Stalls, def.VideoQuality,
		l2a.LatencyError(), l2a.Stalls, l2a.VideoQuality,
		lolp.LatencyError(), lolp.Stalls, lolp.VideoQuality)
	if !(lolp.LatencyError() < l2a.LatencyError() && l2a.LatencyError() < def.LatencyError()) {
		t.Errorf("latency error not ordered lolp < l2a < default: %v, %v, %v",
			lolp.LatencyError(), l2a.LatencyError(), def.LatencyError())
	}
	if !(lolp.Stalls < l2a.Stalls && l2a.Stalls < def.Stalls) {
		t.Errorf("stalls not ordered lolp < l2a < default: %d, %d, %d",
			lolp.Stalls, l2a.Stalls, def.Stalls)
	}
	if !(def.VideoQuality > l2a.VideoQuality && def.VideoQuality > lolp.VideoQuality) {
		t.Errorf("latency-blind default should keep the most quality: default %.3f, l2a %.3f, lolp %.3f",
			def.VideoQuality, l2a.VideoQuality, lolp.VideoQuality)
	}
	if !(lolp.Score > l2a.Score && lolp.Score > def.Score) {
		t.Errorf("LoL+ should win overall QoE: lolp %.3f, l2a %.3f, default %.3f",
			lolp.Score, l2a.Score, def.Score)
	}
	for _, c := range cells {
		if c.RateChanges == 0 {
			t.Errorf("%s: catch-up controller never adjusted the playback rate", c.Model)
		}
		if c.MeanRate <= 1.0 {
			t.Errorf("%s: mean playback rate %.4f not above 1.0 despite latency pressure", c.Model, c.MeanRate)
		}
	}
}

// TestLiveDeltaOrdering is the acceptance check for the live packaging
// family: the demuxed-over-muxed penalty must widen under HTTP/1.1 and
// narrow under HTTP/3 when the session holds a latency target. The
// connection-stall component separates all three generations strictly.
func TestLiveDeltaOrdering(t *testing.T) {
	cells, err := LiveTransport(0)
	if err != nil {
		t.Fatal(err)
	}
	d := LiveTransportDeltas(cells)
	h1, h2, h3 := d[netsim.H1], d[netsim.H2], d[netsim.H3]
	t.Logf("deltas: h1 lat=%v dead=%v stall=%v | h2 lat=%v dead=%v stall=%v | h3 lat=%v dead=%v stall=%v",
		h1.Latency, h1.DeadAir, h1.ConnStall, h2.Latency, h2.DeadAir, h2.ConnStall, h3.Latency, h3.DeadAir, h3.ConnStall)
	if h1.Total() <= h3.Total() {
		t.Errorf("live demuxed penalty does not widen under h1 vs h3: %v <= %v", h1.Total(), h3.Total())
	}
	if h1.Latency <= h3.Latency {
		t.Errorf("live latency penalty does not widen under h1 vs h3: %v <= %v", h1.Latency, h3.Latency)
	}
	if !(h1.ConnStall > h2.ConnStall && h2.ConnStall > h3.ConnStall) {
		t.Errorf("conn-stall deltas not ordered h1 > h2 > h3: %v, %v, %v",
			h1.ConnStall, h2.ConnStall, h3.ConnStall)
	}
	for _, p := range TransportProtocols() {
		if d[p].Latency <= 0 {
			t.Errorf("demuxed free-running should cost live-edge latency under %s, got %v", p, d[p].Latency)
		}
		if d[p].DeadAir <= 0 {
			t.Errorf("demuxed free-running should cost dead air under %s, got %v", p, d[p].DeadAir)
		}
	}
	// Overrun recovery: only the free-running demuxed sessions drift far
	// enough past the threshold to resync; the pinned muxed baseline never
	// does, so skipped media is a demux-specific live cost here.
	for _, c := range cells {
		switch c.Scenario {
		case "demux-independent":
			if c.Resyncs == 0 {
				t.Errorf("demux-independent under %s: expected live-edge resyncs, got none", c.Protocol)
			}
			if c.Skipped <= 0 {
				t.Errorf("demux-independent under %s: resyncs should discard media, skipped %v", c.Protocol, c.Skipped)
			}
		case "muxed":
			if c.Resyncs != 0 {
				t.Errorf("muxed under %s: unexpected resyncs %d", c.Protocol, c.Resyncs)
			}
		}
	}
}
