package trace

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
	"time"

	"demuxabr/internal/media"
)

func TestFixedProfile(t *testing.T) {
	p := Fixed(media.Kbps(900))
	if p.RateAt(0) != media.Kbps(900) || p.RateAt(time.Hour) != media.Kbps(900) {
		t.Error("fixed rate wrong")
	}
	if _, ok := p.NextChange(0); ok {
		t.Error("fixed profile should never change")
	}
}

func TestStepsBasic(t *testing.T) {
	s := MustSteps([]Step{{0, 100}, {10 * time.Second, 200}, {20 * time.Second, 50}}, 0)
	cases := []struct {
		at   time.Duration
		want media.Bps
	}{
		{0, 100}, {9 * time.Second, 100}, {10 * time.Second, 200},
		{15 * time.Second, 200}, {20 * time.Second, 50}, {time.Hour, 50},
		{-time.Second, 100},
	}
	for _, tc := range cases {
		if got := s.RateAt(tc.at); got != tc.want {
			t.Errorf("RateAt(%v) = %v, want %v", tc.at, got, tc.want)
		}
	}
	if next, ok := s.NextChange(0); !ok || next != 10*time.Second {
		t.Errorf("NextChange(0) = %v,%v", next, ok)
	}
	if next, ok := s.NextChange(10 * time.Second); !ok || next != 20*time.Second {
		t.Errorf("NextChange(10s) = %v,%v", next, ok)
	}
	if _, ok := s.NextChange(20 * time.Second); ok {
		t.Error("no change expected after last step")
	}
}

func TestStepsCyclic(t *testing.T) {
	s := SquareWave(1000, 500, 4*time.Second, 8*time.Second) // cycle 12s
	cases := []struct {
		at   time.Duration
		want media.Bps
	}{
		{0, 1000}, {3 * time.Second, 1000}, {4 * time.Second, 500},
		{11 * time.Second, 500}, {12 * time.Second, 1000}, {16 * time.Second, 500},
		{24 * time.Second, 1000},
	}
	for _, tc := range cases {
		if got := s.RateAt(tc.at); got != tc.want {
			t.Errorf("RateAt(%v) = %v, want %v", tc.at, got, tc.want)
		}
	}
	if next, ok := s.NextChange(0); !ok || next != 4*time.Second {
		t.Errorf("NextChange(0) = %v,%v", next, ok)
	}
	if next, ok := s.NextChange(5 * time.Second); !ok || next != 12*time.Second {
		t.Errorf("NextChange(5s) = %v,%v", next, ok)
	}
	if next, ok := s.NextChange(12 * time.Second); !ok || next != 16*time.Second {
		t.Errorf("NextChange(12s) = %v,%v", next, ok)
	}
}

func TestNewStepsValidation(t *testing.T) {
	if _, err := NewSteps(nil, 0); err == nil {
		t.Error("empty sequence should fail")
	}
	if _, err := NewSteps([]Step{{time.Second, 1}}, 0); err == nil {
		t.Error("first step not at 0 should fail")
	}
	if _, err := NewSteps([]Step{{0, 1}, {0, 2}}, 0); err == nil {
		t.Error("non-increasing steps should fail")
	}
	if _, err := NewSteps([]Step{{0, 1}, {5 * time.Second, 2}}, 5*time.Second); err == nil {
		t.Error("step at cycle boundary should fail")
	}
	if _, err := NewSteps([]Step{{0, 1}}, -time.Second); err == nil {
		t.Error("negative cycle should fail")
	}
}

func TestAverage(t *testing.T) {
	sq := SquareWave(media.Kbps(1500), media.Kbps(150), 4*time.Second, 8*time.Second)
	avg := Average(sq, 12*time.Second)
	if got := avg.Kbps(); math.Abs(got-600) > 1 {
		t.Errorf("square wave average = %.1f Kbps, want 600", got)
	}
	// Over many cycles the average must stay put.
	avg = Average(sq, 10*12*time.Second)
	if got := avg.Kbps(); math.Abs(got-600) > 1 {
		t.Errorf("multi-cycle average = %.1f Kbps, want 600", got)
	}
	if got := Average(Fixed(media.Kbps(700)), time.Minute); got != media.Kbps(700) {
		t.Errorf("fixed average = %v", got)
	}
	if got := Average(Fixed(1), 0); got != 0 {
		t.Errorf("zero-horizon average = %v", got)
	}
}

func TestPaperPresetAverages(t *testing.T) {
	if got := Average(Fig3VaryingAvg600(), 5*time.Minute).Kbps(); math.Abs(got-600) > 60 {
		t.Errorf("Fig3 profile average = %.1f Kbps, want ~600", got)
	}
	if got := Average(Fig4bBimodal600(), 12*time.Second).Kbps(); math.Abs(got-600) > 1 {
		t.Errorf("Fig4b profile average = %.1f Kbps, want 600", got)
	}
	// The Fig 4(a) point: 1 Mbps delivers under 16 KB per 0.125 s.
	bytesPerInterval := float64(Fig4aBandwidth().RateAt(0)) * 0.125 / 8
	if bytesPerInterval >= 16*1024 {
		t.Errorf("1 Mbps delivers %.0f B per interval; must be < 16 KiB for the Fig 4(a) pathology", bytesPerInterval)
	}
}

func TestRandomWalkDeterministicAndBounded(t *testing.T) {
	a := RandomWalk(7, media.Kbps(250), media.Kbps(950), 5*time.Second, time.Minute)
	b := RandomWalk(7, media.Kbps(250), media.Kbps(950), 5*time.Second, time.Minute)
	for ts := time.Duration(0); ts < 3*time.Minute; ts += time.Second {
		ra, rb := a.RateAt(ts), b.RateAt(ts)
		if ra != rb {
			t.Fatalf("random walk not deterministic at %v", ts)
		}
		if ra < media.Kbps(250) || ra > media.Kbps(950) {
			t.Fatalf("rate %v out of bounds at %v", ra, ts)
		}
	}
	c := RandomWalk(8, media.Kbps(250), media.Kbps(950), 5*time.Second, time.Minute)
	same := true
	for ts := time.Duration(0); ts < time.Minute; ts += 5 * time.Second {
		if a.RateAt(ts) != c.RateAt(ts) {
			same = false
		}
	}
	if same {
		t.Error("different seeds should give different walks")
	}
}

func TestRandomWalkSwappedBounds(t *testing.T) {
	p := RandomWalk(1, media.Kbps(900), media.Kbps(100), time.Second, 10*time.Second)
	for ts := time.Duration(0); ts < 10*time.Second; ts += time.Second {
		if r := p.RateAt(ts); r < media.Kbps(100) || r > media.Kbps(900) {
			t.Fatalf("rate %v out of swapped bounds", r)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	orig := SquareWave(media.Kbps(1500), media.Kbps(150), 4*time.Second, 8*time.Second)
	got, err := ReadCSV(bytes.NewBufferString("0.000000,1500.000\n4.000000,150.000\n#cycle,12.000000\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycle != orig.Cycle || len(got.Seq) != len(orig.Seq) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, orig)
	}
	for ts := time.Duration(0); ts < 30*time.Second; ts += 500 * time.Millisecond {
		if got.RateAt(ts) != orig.RateAt(ts) {
			t.Fatalf("rate mismatch at %v", ts)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	bad := []string{
		"nonsense",
		"1.0,abc",
		"abc,100",
		"#cycle,xyz",
		"0,100\n0,200", // duplicate timestamps
	}
	for _, in := range bad {
		if _, err := ReadCSV(bytes.NewBufferString(in)); err == nil {
			t.Errorf("input %q should fail", in)
		}
	}
	// Comments and blank lines are fine.
	good := "# a comment\n0,100\n\n5.0,200\n"
	s, err := ReadCSV(bytes.NewBufferString(good))
	if err != nil {
		t.Fatalf("good input failed: %v", err)
	}
	if s.RateAt(6*time.Second) != media.Kbps(200) {
		t.Error("parsed profile wrong")
	}
}

// Property: for any Steps profile, integrating RateAt between consecutive
// NextChange breakpoints over one cycle reproduces Average exactly, and
// NextChange is strictly increasing.
func TestNextChangeMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		p := RandomWalk(seed, media.Kbps(100), media.Kbps(2000), time.Second, 20*time.Second)
		prev := time.Duration(-1)
		tcur := time.Duration(0)
		for i := 0; i < 100; i++ {
			next, ok := p.NextChange(tcur)
			if !ok {
				return false // cyclic profile always has a next change
			}
			if next <= prev || next <= tcur {
				return false
			}
			prev, tcur = next, next
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestNamedRegistry(t *testing.T) {
	for _, name := range Names() {
		p, err := Named(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if p.RateAt(0) < 0 {
			t.Errorf("%s: negative rate", name)
		}
	}
	if _, err := Named("bogus"); err == nil {
		t.Error("unknown name should fail")
	}
}
