package lowlat

import (
	"testing"
	"time"

	"demuxabr/internal/abr"
	"demuxabr/internal/media"
)

// ladder is a five-rung combination list with declared totals of 500,
// 1000, 2000, 4000 and 6000 Kbps (a 100 Kbps audio track under each),
// deliberately given out of order so the constructors must sort it.
func ladder() []media.Combo {
	audio := &media.Track{ID: "A1", Type: media.Audio, DeclaredBitrate: media.Kbps(100)}
	var combos []media.Combo
	for _, kbps := range []float64{4000, 500, 6000, 1000, 2000} {
		v := &media.Track{ID: "V", Type: media.Video, DeclaredBitrate: media.Kbps(kbps - 100)}
		combos = append(combos, media.Combo{Video: v, Audio: audio})
	}
	return combos
}

// kbpsOver is a completed-chunk observation of the given throughput: the
// bytes that rate moves in d.
func kbpsOver(kbps float64, d time.Duration) abr.TransferInfo {
	return abr.TransferInfo{Type: media.Video, Bytes: kbps * 1000 / 8 * d.Seconds(), Duration: d}
}

// chunkAt is a completed 62.5 kB chunk (weight 250 in LoL+'s percentile,
// so eight fit under the default MaxWeight of 2000) at the given
// throughput. Every duration used is a binary fraction of a second, so
// the throughput is exact.
func chunkAt(kbps float64) abr.TransferInfo {
	return abr.TransferInfo{Type: media.Video, Bytes: 62_500, Duration: time.Duration(500 / kbps * float64(time.Second))}
}

func declared(c media.Combo) float64 { return c.DeclaredBitrate().Kbps() }

func TestDefaultThroughputRule(t *testing.T) {
	d := NewDefault(ladder())
	if d.Name() != "ll-default" {
		t.Fatalf("name %q", d.Name())
	}
	if got := declared(d.SelectCombo(abr.State{})); got != 500 {
		t.Fatalf("before any sample: %v Kbps, want the lowest rung 500", got)
	}
	for _, tc := range []struct {
		sample float64 // Kbps
		want   float64 // Kbps of the selected combination
	}{
		{3000, 2000}, // mean 3000 → budget 2700
		{3000, 2000},
		{3000, 2000},
		{1000, 2000}, // mean of the last three 2333 → budget 2100
		{1000, 1000}, // 1667 → 1500
		{1000, 500},  // 1000 → 900: the oldest 3000 has left the window
	} {
		d.OnComplete(kbpsOver(tc.sample, time.Second))
		st := abr.State{Now: time.Minute, LatencyTarget: 4 * time.Second, Latency: 4 * time.Second}
		got := declared(d.SelectCombo(st))
		// Latency-blind: a large overrun must not change the selection.
		st.Latency = time.Minute
		if lag := declared(d.SelectCombo(st)); lag != got {
			t.Fatalf("after %v Kbps: latency overrun moved the selection %v → %v", tc.sample, got, lag)
		}
		if got != tc.want {
			t.Fatalf("after %v Kbps: selected %v Kbps, want %v", tc.sample, got, tc.want)
		}
	}
}

func TestL2AReactiveEstimate(t *testing.T) {
	l := NewL2A(ladder())
	if l.Name() != "ll-l2a" {
		t.Fatalf("name %q", l.Name())
	}
	if _, ok := l.BandwidthEstimate(); ok {
		t.Fatal("estimate ok before any sample")
	}
	if got := declared(l.SelectCombo(abr.State{})); got != 500 {
		t.Fatalf("before any sample: %v Kbps, want 500", got)
	}
	l.OnComplete(kbpsOver(4500, time.Second))
	l.OnComplete(kbpsOver(4500, time.Second))
	// VOD (no target): no queue, no safety factor, so the full 4500 buys 4000.
	if got := declared(l.SelectCombo(abr.State{})); got != 4000 {
		t.Fatalf("steady 4500 Kbps: %v Kbps, want 4000", got)
	}
	// A drop is acted on within one chunk: min(mean 3400, last 1200).
	l.OnComplete(kbpsOver(1200, time.Second))
	if est, _ := l.BandwidthEstimate(); est.Kbps() != 1200 {
		t.Fatalf("reactive estimate %v Kbps, want the last sample 1200", est.Kbps())
	}
	if got := declared(l.SelectCombo(abr.State{})); got != 1000 {
		t.Fatalf("after the drop: %v Kbps, want 1000", got)
	}
}

func TestL2AVirtualQueue(t *testing.T) {
	l := NewL2A(ladder())
	for i := 0; i < 3; i++ {
		l.OnComplete(kbpsOver(4500, time.Second))
	}
	target := 4 * time.Second
	for i, tc := range []struct {
		latency time.Duration
		queue   float64 // after the decision
		want    float64 // Kbps
	}{
		{target - 10*time.Second, 0, 4000}, // ahead of target: the queue clamps at 0
		{target + 2*time.Second, 2, 1000},  // budget 4500/(1+1.5·2) = 1125
		{target, 1.2, 1000},                // leaks by 0.6: 4500/2.8 = 1607
		{target, 0.72, 2000},               // 4500/2.08 = 2163
		{target + 100*time.Second, 8, 500}, // capped at L2AQueueMax: 4500/13 = 346
		{target, 4.8, 500},                 // 4500/8.2 = 549
	} {
		got := declared(l.SelectCombo(abr.State{Latency: tc.latency, LatencyTarget: target}))
		if diff := l.queue - tc.queue; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("decision %d: queue %v, want %v", i, l.queue, tc.queue)
		}
		if got != tc.want {
			t.Fatalf("decision %d: %v Kbps, want %v", i, got, tc.want)
		}
	}
}

func TestLoLPGatedUpSwitch(t *testing.T) {
	p := NewLoLP(ladder())
	if p.Name() != "ll-lolp" {
		t.Fatalf("name %q", p.Name())
	}
	if p.hist.Percentile != LoLPPercentile {
		t.Fatalf("percentile %v, want %v", p.hist.Percentile, LoLPPercentile)
	}
	if got := declared(p.SelectCombo(abr.State{})); got != 500 {
		t.Fatalf("before any sample: %v Kbps, want 500", got)
	}
	// Equal-byte chunks weigh the same: one slow 1000 Kbps chunk, then four
	// at 8000. The 25th percentile of five equal weights is the second
	// smallest, 8000, so the estimate is 8000 and the ideal 6000 (budget
	// 6400).
	p.OnComplete(chunkAt(1000))
	for i := 0; i < 4; i++ {
		p.OnComplete(chunkAt(8000))
	}
	if est, _ := p.BandwidthEstimate(); est.Kbps() != 8000 {
		t.Fatalf("estimate %v Kbps, want 8000", est.Kbps())
	}
	live := func(now, latency, buf time.Duration) abr.State {
		return abr.State{
			Now: now, ChunkDuration: 2 * time.Second,
			VideoBuffer: buf, AudioBuffer: buf,
			Latency: latency, LatencyTarget: 3 * time.Second,
		}
	}
	for i, tc := range []struct {
		st   abr.State
		want float64
		why  string
	}{
		{live(10*time.Second, 3*time.Second, 4*time.Second), 500, "held: 10 s since the last increase < LoLPMinHold"},
		{live(20*time.Second, 3600*time.Millisecond, 4*time.Second), 500, "latency 0.6 s over target exceeds the 0.5 s slack"},
		{live(20*time.Second, 3*time.Second, 1400*time.Millisecond), 500, "buffer below the gate min(chunk, target/2) = 1.5 s"},
		{live(20*time.Second, 3400*time.Millisecond, 1600*time.Millisecond), 6000, "every gate open"},
	} {
		if got := declared(p.SelectCombo(tc.st)); got != tc.want {
			t.Fatalf("decision %d: %v Kbps, want %v (%s)", i, got, tc.want, tc.why)
		}
	}
	// Down-switches are immediate: the last sample caps the estimate.
	p.OnComplete(chunkAt(500))
	if got := declared(p.SelectCombo(live(21*time.Second, 3*time.Second, 4*time.Second))); got != 500 {
		t.Fatalf("after a 500 Kbps chunk: %v Kbps, want an immediate drop to 500", got)
	}
}

// TestLoLPPercentileAfterEstimate changes the percentile after an estimate
// has been taken: the estimator's cached sort must not serve a stale value.
func TestLoLPPercentileAfterEstimate(t *testing.T) {
	p := NewLoLP(ladder())
	for _, kbps := range []float64{1000, 2000, 4000, 8000} {
		p.OnComplete(chunkAt(kbps))
	}
	for _, tc := range []struct {
		percentile float64
		want       float64 // Kbps; the last sample (8000) caps nothing here
	}{
		{LoLPPercentile, 1000},
		{0.75, 4000},
		{1, 8000},
		{LoLPPercentile, 1000},
	} {
		p.hist.Percentile = tc.percentile
		if est, _ := p.BandwidthEstimate(); est.Kbps() != tc.want {
			t.Fatalf("percentile %v: estimate %v Kbps, want %v", tc.percentile, est.Kbps(), tc.want)
		}
	}
}
