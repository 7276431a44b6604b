package trace

import (
	"testing"
	"time"

	"demuxabr/internal/media"
)

func TestSequenceComposition(t *testing.T) {
	s, err := Sequence(false,
		Part{Profile: Fixed(media.Kbps(1000)), For: 10 * time.Second},
		Part{Profile: Fixed(media.Kbps(200)), For: 5 * time.Second},
	)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		at   time.Duration
		want media.Bps
	}{
		{0, media.Kbps(1000)},
		{9 * time.Second, media.Kbps(1000)},
		{10 * time.Second, media.Kbps(200)},
		{14 * time.Second, media.Kbps(200)},
		{time.Hour, media.Kbps(200)}, // final rate holds
	}
	for _, tc := range cases {
		if got := s.RateAt(tc.at); got != tc.want {
			t.Errorf("RateAt(%v) = %v, want %v", tc.at, got, tc.want)
		}
	}
}

func TestSequenceCyclic(t *testing.T) {
	s := MustSequence(true,
		Part{Profile: Fixed(100), For: 2 * time.Second},
		Part{Profile: Fixed(300), For: 3 * time.Second},
	)
	if s.Cycle != 5*time.Second {
		t.Fatalf("cycle = %v, want 5s", s.Cycle)
	}
	if got := s.RateAt(6 * time.Second); got != 100 {
		t.Errorf("RateAt(6s) = %v, want 100 (cycled)", got)
	}
	if got := s.RateAt(9 * time.Second); got != 300 {
		t.Errorf("RateAt(9s) = %v, want 300 (cycled)", got)
	}
}

func TestSequenceNestedSteps(t *testing.T) {
	// A square wave truncated at 10 s inside a sequence must carry its
	// inner breakpoints through.
	inner := SquareWave(media.Kbps(800), media.Kbps(200), 2*time.Second, 2*time.Second)
	s := MustSequence(false,
		Part{Profile: inner, For: 10 * time.Second},
		Part{Profile: Fixed(media.Kbps(50)), For: 5 * time.Second},
	)
	wants := []struct {
		at   time.Duration
		want media.Bps
	}{
		{0, media.Kbps(800)}, {2 * time.Second, media.Kbps(200)},
		{4 * time.Second, media.Kbps(800)}, {9 * time.Second, media.Kbps(800)},
		{10 * time.Second, media.Kbps(50)},
	}
	for _, tc := range wants {
		if got := s.RateAt(tc.at); got != tc.want {
			t.Errorf("RateAt(%v) = %v, want %v", tc.at, got, tc.want)
		}
	}
}

func TestSequenceErrors(t *testing.T) {
	if _, err := Sequence(false); err == nil {
		t.Error("empty sequence should fail")
	}
	if _, err := Sequence(false, Part{Profile: Fixed(1), For: 0}); err == nil {
		t.Error("zero-duration part should fail")
	}
	if _, err := Sequence(false, Part{Profile: nil, For: time.Second}); err == nil {
		t.Error("nil profile should fail")
	}
}

func TestLTEProfile(t *testing.T) {
	p := LTEProfile(3, 4*time.Second, time.Minute)
	sawZero, sawHigh := false, false
	for at := time.Duration(0); at < 2*time.Minute; at += time.Second {
		r := p.RateAt(at)
		if r == 0 {
			sawZero = true
		}
		if r > media.Kbps(400) {
			sawHigh = true
		}
		if r != 0 && (r < 400_000 || r > 3_000_000) {
			t.Fatalf("rate %v outside LTE envelope", r)
		}
	}
	if !sawZero || !sawHigh {
		t.Errorf("LTE profile should include outages (%v) and fast periods (%v)", sawZero, sawHigh)
	}
	defer func() {
		if recover() == nil {
			t.Error("outage >= horizon should panic")
		}
	}()
	LTEProfile(1, time.Minute, time.Minute)
}
