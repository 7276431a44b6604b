//go:build !race

package core

import (
	"testing"

	"demuxabr/internal/trace"
)

// playAllocsPin is the ratchet for TestPlayAllocs, per player kind: the
// measured allocations plus 2, since the runtime now and then adds one or
// two of its own to a run's count. Lower an entry when a change cuts
// allocations; never raise one to make a regression pass.
var playAllocsPin = []struct {
	kind PlayerKind
	pin  float64
}{
	{DashJS, 109},
	{BestPractice, 112},
	{VBRJoint, 101},
}

// TestPlayAllocs pins the allocations of one warm Play session on the
// Fig. 3 trace for a DASH kind, an HLS kind and the HLS kind that also
// reads the media playlists: the three manifest parse paths. A warm
// session takes its manifest from the memoized parse, so any per-session
// round trip shows here. The race detector changes allocation counts, so
// the test is built only without it (check.sh runs it in a step of its
// own).
func TestPlayAllocs(t *testing.T) {
	for _, p := range playAllocsPin {
		spec := Spec{Profile: trace.Fig3VaryingAvg600(), Player: p.kind}
		var err error
		allocs := testing.AllocsPerRun(10, func() { _, err = Play(spec) })
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %.0f allocs per Play", p.kind, allocs)
		if allocs > p.pin {
			t.Errorf("%s: %.0f allocs per Play, pinned at %.0f", p.kind, allocs, p.pin)
		}
	}
}
