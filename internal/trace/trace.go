// Package trace provides deterministic network-bandwidth profiles for the
// streaming simulator — the role played by tc(8) shaping in the paper's
// testbed. Profiles are piecewise-constant functions of time and expose
// their breakpoints so an event-driven simulator can integrate them exactly.
package trace

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"demuxabr/internal/media"
)

// Profile is a deterministic, piecewise-constant bandwidth-over-time
// function. Implementations must be pure: RateAt(t) always returns the same
// value for the same t.
type Profile interface {
	// RateAt returns the link capacity at time t.
	RateAt(t time.Duration) media.Bps
	// NextChange returns the first instant strictly after t at which the
	// rate changes. ok is false if the rate never changes again.
	NextChange(t time.Duration) (next time.Duration, ok bool)
}

// Fixed is a constant-bandwidth profile.
type Fixed media.Bps

// RateAt implements Profile.
func (f Fixed) RateAt(time.Duration) media.Bps { return media.Bps(f) }

// NextChange implements Profile; a fixed profile never changes.
func (f Fixed) NextChange(time.Duration) (time.Duration, bool) { return 0, false }

// String describes the profile.
func (f Fixed) String() string { return fmt.Sprintf("fixed(%v)", media.Bps(f)) }

// Step is one segment of a Steps profile: the rate that applies from At
// (inclusive) until the next step.
type Step struct {
	At   time.Duration
	Rate media.Bps
}

// Steps is a piecewise-constant profile given by explicit breakpoints.
// If Cycle > 0 the step pattern repeats with that period; otherwise the
// final rate holds forever. The first step must be at time zero.
type Steps struct {
	Seq   []Step
	Cycle time.Duration
}

// NewSteps validates and constructs a Steps profile.
func NewSteps(seq []Step, cycle time.Duration) (*Steps, error) {
	if len(seq) == 0 {
		return nil, fmt.Errorf("trace: empty step sequence")
	}
	if seq[0].At != 0 {
		return nil, fmt.Errorf("trace: first step must be at t=0, got %v", seq[0].At)
	}
	for i := 1; i < len(seq); i++ {
		if seq[i].At <= seq[i-1].At {
			return nil, fmt.Errorf("trace: steps not strictly increasing at index %d", i)
		}
	}
	if cycle < 0 {
		return nil, fmt.Errorf("trace: negative cycle %v", cycle)
	}
	if cycle > 0 && seq[len(seq)-1].At >= cycle {
		return nil, fmt.Errorf("trace: last step %v not inside cycle %v", seq[len(seq)-1].At, cycle)
	}
	return &Steps{Seq: seq, Cycle: cycle}, nil
}

// MustSteps is NewSteps that panics on error; for presets and tests.
func MustSteps(seq []Step, cycle time.Duration) *Steps {
	s, err := NewSteps(seq, cycle)
	if err != nil {
		panic(err)
	}
	return s
}

func (s *Steps) fold(t time.Duration) time.Duration {
	if s.Cycle > 0 {
		t %= s.Cycle
	}
	return t
}

// RateAt implements Profile.
func (s *Steps) RateAt(t time.Duration) media.Bps {
	if t < 0 {
		t = 0
	}
	t = s.fold(t)
	// Binary search for the last step with At <= t.
	i := sort.Search(len(s.Seq), func(i int) bool { return s.Seq[i].At > t })
	return s.Seq[i-1].Rate
}

// NextChange implements Profile.
func (s *Steps) NextChange(t time.Duration) (time.Duration, bool) {
	if len(s.Seq) == 1 && s.Cycle == 0 {
		return 0, false
	}
	if t < 0 {
		t = -1 // so a step at 0 counts as "after t"
	}
	if s.Cycle == 0 {
		for _, st := range s.Seq {
			if st.At > t {
				return st.At, true
			}
		}
		return 0, false
	}
	base := t - s.fold(t)
	local := s.fold(t)
	for _, st := range s.Seq {
		if st.At > local {
			return base + st.At, true
		}
	}
	return base + s.Cycle, true
}

// SquareWave builds a cyclic two-level profile: `high` for highDur, then
// `low` for lowDur, repeating.
func SquareWave(high, low media.Bps, highDur, lowDur time.Duration) *Steps {
	return MustSteps([]Step{{0, high}, {highDur, low}}, highDur+lowDur)
}

// RandomWalk builds a profile that re-draws a rate uniformly in [min, max]
// every interval, for the given horizon, then cycles. The draw sequence is
// fully determined by seed.
func RandomWalk(seed int64, min, max media.Bps, interval, horizon time.Duration) *Steps {
	if max < min {
		min, max = max, min
	}
	rng := rand.New(rand.NewSource(seed))
	var seq []Step
	for at := time.Duration(0); at < horizon; at += interval {
		r := min + media.Bps(rng.Int63n(int64(max-min)+1))
		seq = append(seq, Step{At: at, Rate: r})
	}
	return MustSteps(seq, horizon)
}

// Average integrates the profile over [0, horizon] and returns the mean rate.
func Average(p Profile, horizon time.Duration) media.Bps {
	if horizon <= 0 {
		return 0
	}
	var bits float64
	t := time.Duration(0)
	for t < horizon {
		end := horizon
		if next, ok := p.NextChange(t); ok && next < horizon {
			end = next
		}
		bits += float64(p.RateAt(t)) * (end - t).Seconds()
		t = end
	}
	return media.Bps(bits / horizon.Seconds())
}
