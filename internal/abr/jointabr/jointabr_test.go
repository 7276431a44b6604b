package jointabr

import (
	"testing"
	"time"

	"demuxabr/internal/abr"
	"demuxabr/internal/abr/estimator"
	"demuxabr/internal/ledger"
	"demuxabr/internal/media"
)

// hsub is the content's curated allowed list, prepared for a model.
func hsub(c *media.Content) *abr.Allowed { return abr.NewAllowed(media.HSub(c)) }

func feed(p *Player, t media.Type, bps float64, n int, at time.Duration) time.Duration {
	for i := 0; i < n; i++ {
		p.OnStart(abr.TransferInfo{Type: t, At: at})
		p.OnProgress(abr.TransferInfo{Type: t, Bytes: bps / 8, Duration: time.Second})
		at += time.Second
		p.OnComplete(abr.TransferInfo{Type: t, Bytes: bps / 8, Duration: time.Second, At: at})
	}
	return at
}

func st(buf time.Duration, now time.Duration) abr.State {
	return abr.State{Now: now, VideoBuffer: buf, AudioBuffer: buf, ChunkDuration: 5 * time.Second}
}

func TestStartsAtLowestAllowed(t *testing.T) {
	c := media.DramaShow()
	p := New(hsub(c))
	got := p.SelectCombo(st(0, 0))
	if got.String() != "V1+A1" {
		t.Errorf("initial selection = %s, want V1+A1", got)
	}
}

func TestSelectsOnlyAllowedCombos(t *testing.T) {
	c := media.DramaShow()
	allowed := media.HSub(c)
	p := New(abr.NewAllowed(allowed))
	inAllowed := func(cb media.Combo) bool {
		for _, a := range allowed {
			if a.String() == cb.String() {
				return true
			}
		}
		return false
	}
	now := time.Duration(0)
	for _, rate := range []float64{200e3, 500e3, 900e3, 2e6, 5e6, 300e3} {
		now = feed(p, media.Video, rate, 5, now)
		got := p.SelectCombo(st(15*time.Second, now))
		if !inAllowed(got) {
			t.Fatalf("selected %s at %v bps: not in the allowed list", got, rate)
		}
	}
}

func TestAudioAdaptsWithBandwidth(t *testing.T) {
	// Best practice 1: the audio selection must move with bandwidth.
	c := media.DramaShow()
	p := New(hsub(c))
	now := feed(p, media.Video, 300e3, 6, 0)
	low := p.SelectCombo(st(15*time.Second, now))
	now = feed(p, media.Video, 6e6, 12, now)
	now += 20 * time.Second
	high := p.SelectCombo(st(20*time.Second, now))
	if low.Audio.ID == high.Audio.ID {
		t.Errorf("audio pinned at %s across a 20x bandwidth change", low.Audio.ID)
	}
	if high.Audio.ID != "A3" || high.Video.ID != "V6" {
		t.Errorf("high-bandwidth selection = %s, want V6+A3", high)
	}
}

func TestDampingPreventsFlapping(t *testing.T) {
	c := media.DramaShow()
	p := New(hsub(c))
	// Estimate hovers around the V2/V3 boundary; with damping the
	// selection must not change on every decision.
	now := feed(p, media.Video, 700e3, 4, 0)
	prev := p.SelectCombo(st(15*time.Second, now))
	switches := 0
	rates := []float64{850e3, 700e3, 880e3, 690e3, 860e3, 710e3, 840e3, 700e3}
	for _, r := range rates {
		now = feed(p, media.Video, r, 2, now)
		got := p.SelectCombo(st(15*time.Second, now))
		if got.String() != prev.String() {
			switches++
		}
		prev = got
	}
	if switches > 2 {
		t.Errorf("%d switches across oscillating estimates; damping should hold", switches)
	}
}

func TestNoDampingAblationFlaps(t *testing.T) {
	c := media.DramaShow()
	damped := New(hsub(c))
	undamped := New(hsub(c), WithoutDamping())
	count := func(p *Player) int {
		now := feed(p, media.Video, 700e3, 4, 0)
		prev := p.SelectCombo(st(15*time.Second, now))
		switches := 0
		for i := 0; i < 12; i++ {
			r := 500e3
			if i%2 == 0 {
				r = 1000e3
			}
			// Hard-reset the estimator to the target rate.
			p.meter = estimator.NewGlobalMeter()
			p.meter.OnStart(abr.TransferInfo{At: now})
			p.meter.OnProgress(abr.TransferInfo{Bytes: r / 8})
			p.meter.OnComplete(abr.TransferInfo{At: now + time.Second})
			now += time.Second
			got := p.SelectCombo(st(15*time.Second, now))
			if got.String() != prev.String() {
				switches++
			}
			prev = got
		}
		return switches
	}
	if d, u := count(damped), count(undamped); d >= u {
		t.Errorf("damped switches (%d) should be fewer than undamped (%d)", d, u)
	}
}

func TestPanicHalvesBudget(t *testing.T) {
	c := media.DramaShow()
	p := New(hsub(c), WithoutDamping())
	now := feed(p, media.Video, 2e6, 6, 0)
	healthy := p.SelectCombo(st(15*time.Second, now))
	panicked := p.SelectCombo(st(2*time.Second, now))
	if panicked.DeclaredBitrate() >= healthy.DeclaredBitrate() {
		t.Errorf("panic selection %s not below healthy %s", panicked, healthy)
	}
}

func TestSharedEstimatorSeesAggregate(t *testing.T) {
	// Two concurrent 1 s transfers, each half of a 1 Mbps link: the shared
	// meter must estimate ~1 Mbps while separate estimators sum the
	// per-type throughputs (which here also sums to 1 Mbps) — the
	// difference appears when only one type has samples.
	c := media.DramaShow()
	shared := New(hsub(c))
	shared.OnStart(abr.TransferInfo{Type: media.Video, At: 0})
	shared.OnStart(abr.TransferInfo{Type: media.Audio, At: 0})
	shared.OnProgress(abr.TransferInfo{Type: media.Video, Bytes: 62500, Duration: time.Second})
	shared.OnProgress(abr.TransferInfo{Type: media.Audio, Bytes: 62500, Duration: time.Second})
	shared.OnComplete(abr.TransferInfo{Type: media.Video, Bytes: 62500, Duration: time.Second, At: time.Second})
	shared.OnComplete(abr.TransferInfo{Type: media.Audio, Bytes: 62500, Duration: time.Second, At: time.Second})
	got, ok := shared.BandwidthEstimate()
	if !ok || got < media.Kbps(990) || got > media.Kbps(1010) {
		t.Errorf("shared estimate = %v,%v; want ~1 Mbps", got, ok)
	}
}

func TestSeparateEstimatorAblation(t *testing.T) {
	c := media.DramaShow()
	p := New(hsub(c), WithSeparateEstimators())
	if _, ok := p.BandwidthEstimate(); ok {
		t.Error("no samples yet: estimate should be absent")
	}
	// Only video samples: the sum is the video estimate alone.
	feed(p, media.Video, 800e3, 4, 0)
	got, ok := p.BandwidthEstimate()
	if !ok || got != media.Kbps(800) {
		t.Errorf("separate estimate = %v,%v; want 800 Kbps", got, ok)
	}
	feed(p, media.Audio, 200e3, 4, 0)
	got, _ = p.BandwidthEstimate()
	if got != media.Kbps(1000) {
		t.Errorf("separate estimate after audio = %v; want 1 Mbps", got)
	}
}

func TestNamesDistinguishAblations(t *testing.T) {
	c := media.DramaShow()
	names := map[string]bool{}
	for _, p := range []*Player{
		New(hsub(c)),
		New(hsub(c), WithoutDamping()),
		New(hsub(c), WithSeparateEstimators()),
		New(hsub(c), WithSeparateEstimators(), WithoutDamping()),
	} {
		if names[p.Name()] {
			t.Errorf("duplicate name %q", p.Name())
		}
		names[p.Name()] = true
	}
}

func TestEmptyAllowedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty allowed list should panic")
		}
	}()
	New(abr.NewAllowed(nil))
}

func TestAllowedListSorted(t *testing.T) {
	c := media.DramaShow()
	// Feed combos in reverse order; Allowed() must come back sorted.
	combos := media.HSub(c)
	rev := make([]media.Combo, len(combos))
	for i, cb := range combos {
		rev[len(combos)-1-i] = cb
	}
	p := New(abr.NewAllowed(rev))
	got := p.Allowed()
	for i := 1; i < len(got); i++ {
		if got[i-1].DeclaredBitrate() > got[i].DeclaredBitrate() {
			t.Fatalf("allowed list not sorted at %d: %v", i, got)
		}
	}
}

// TestNamesOfEveryOptionSet: a Player and an Independent are named for
// their options, every option set apart from the others, and Name
// allocates nothing for any of them.
func TestNamesOfEveryOptionSet(t *testing.T) {
	c := media.DramaShow()
	opts := []Option{WithSeparateEstimators(), WithoutDamping(), WithPathAwareness(), WithAbandonment()}
	seen := map[string]bool{}
	var sink string
	pin := ledger.For(t).Bound("every option set", "allocs")
	for set := range 1 << len(opts) {
		var with []Option
		for bit, o := range opts {
			if set&(1<<bit) != 0 {
				with = append(with, o)
			}
		}
		separate, noDamping := set&1 != 0, set&2 != 0
		want := map[[2]bool]string{
			{false, false}: "bestpractice",
			{false, true}:  "bestpractice-nodamping",
			{true, false}:  "bestpractice-separate-est",
			{true, true}:   "bestpractice-separate-nodamping",
		}[[2]bool{separate, noDamping}]
		if set&4 != 0 {
			want += "+pathaware"
		}
		if set&8 != 0 {
			want += "+abandon"
		}
		for _, m := range []abr.Algorithm{New(hsub(c), with...), NewIndependent(hsub(c), with...)} {
			w := want
			if _, ok := m.(*Independent); ok {
				w += "-independent"
			}
			if got := m.Name(); got != w {
				t.Errorf("option set %04b: named %q, want %q", set, got, w)
			}
			if seen[w] {
				t.Errorf("option set %04b: name %q taken by another set", set, w)
			}
			seen[w] = true
			if allocs := testing.AllocsPerRun(10, func() { sink = m.Name() }); allocs > pin {
				t.Errorf("%s: Name makes %v allocations, pinned at %v", w, allocs, pin)
			}
		}
	}
	_ = sink
}
