package trace

import (
	"fmt"
	"time"
)

// Part is one phase of a composed profile.
type Part struct {
	Profile Profile
	For     time.Duration
}

// Sequence composes profiles in time: each part plays for its duration
// (evaluated from its own time zero), then the next begins. With cycle
// true the whole sequence repeats; otherwise the final part's behaviour at
// its end time holds forever. The composition is flattened into a Steps
// profile, so it exports to CSV like any other.
func Sequence(cycle bool, parts ...Part) (*Steps, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("trace: empty sequence")
	}
	var seq []Step
	var offset time.Duration
	for i, part := range parts {
		if part.For <= 0 {
			return nil, fmt.Errorf("trace: part %d has non-positive duration", i)
		}
		if part.Profile == nil {
			return nil, fmt.Errorf("trace: part %d has nil profile", i)
		}
		local := time.Duration(0)
		for local < part.For {
			rate := part.Profile.RateAt(local)
			if len(seq) == 0 || seq[len(seq)-1].Rate != rate {
				seq = append(seq, Step{At: offset + local, Rate: rate})
			}
			next, ok := part.Profile.NextChange(local)
			if !ok || next >= part.For {
				break
			}
			local = next
		}
		offset += part.For
	}
	if seq[0].At != 0 {
		return nil, fmt.Errorf("trace: internal error: sequence does not start at zero")
	}
	var cyclePeriod time.Duration
	if cycle {
		cyclePeriod = offset
	}
	return NewSteps(seq, cyclePeriod)
}

// MustSequence is Sequence that panics on error.
func MustSequence(cycle bool, parts ...Part) *Steps {
	s, err := Sequence(cycle, parts...)
	if err != nil {
		panic(err)
	}
	return s
}

// LTEProfile approximates a mobile link: a seeded random walk between 400
// Kbps and 3 Mbps re-drawn every 2 s, with an outage ("tunnel") of the
// given length inserted once per cycle. Horizon is the cycle length.
func LTEProfile(seed int64, outage, horizon time.Duration) *Steps {
	if outage >= horizon {
		panic("trace: outage longer than horizon")
	}
	walk := RandomWalk(seed, 400_000, 3_000_000, 2*time.Second, horizon-outage)
	return MustSequence(true,
		Part{Profile: walk, For: horizon - outage},
		Part{Profile: Fixed(0), For: outage},
	)
}
