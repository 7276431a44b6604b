//go:build !race

package core

import (
	"runtime"
	"testing"

	"demuxabr/internal/trace"
)

// playAllocsPin is the ratchet for TestPlayAllocs, per player kind: the
// measured allocations plus 2, since the runtime now and then adds one or
// two of its own to a run's count, and the measured bytes plus about 1.3%.
// Lower an entry when a change cuts allocations; never raise one to make a
// regression pass.
var playAllocsPin = []struct {
	kind   PlayerKind
	allocs float64
	bytes  uint64
}{
	{DashJS, 30, 12_930},
	{BestPractice, 16, 10_280},
	{VBRJoint, 15, 9_830},
}

// playBytesRuns is how many Plays TestPlayAllocs reads the bytes over.
const playBytesRuns = 10

// TestPlayAllocs pins the allocations and the bytes allocated by one warm
// Play session on the Fig. 3 trace for a DASH kind, an HLS kind and the
// HLS kind that also reads the media playlists: the three manifest parse
// paths. A warm session takes its manifest from the memoized parse, so any
// per-session round trip shows here, and a session that keeps a timeline
// nothing reads shows in its bytes. Bytes are read from
// runtime.MemStats.TotalAlloc over playBytesRuns runs after AllocsPerRun
// has warmed the process, on one P and averaged over the runs, as
// AllocsPerRun reads its count. On one P each Play takes back the state
// the last one put in the sync.Pool, which keeps it per P, so every run is
// warm; and the average keeps an allocation the runtime makes of its own
// now and then (it grows a type-assertion cache at random, see
// runtime/iface.go: 256 bytes in one run, 2% of a Play) to a tenth of
// that. The race detector changes allocation counts, so the test is built
// only without it (check.sh runs it in a step of its own).
func TestPlayAllocs(t *testing.T) {
	for _, p := range playAllocsPin {
		spec := Spec{Profile: trace.Fig3VaryingAvg600(), Player: p.kind}
		var err error
		allocs := testing.AllocsPerRun(10, func() { _, err = Play(spec) })
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %.0f allocs per Play", p.kind, allocs)
		if allocs > p.allocs {
			t.Errorf("%s: %.0f allocs per Play, pinned at %.0f", p.kind, allocs, p.allocs)
		}

		var before, after runtime.MemStats
		procs := runtime.GOMAXPROCS(1)
		runtime.ReadMemStats(&before)
		for range playBytesRuns {
			if _, err = Play(spec); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		runtime.GOMAXPROCS(procs)
		bytes := (after.TotalAlloc - before.TotalAlloc) / playBytesRuns
		t.Logf("%s: %d bytes per Play", p.kind, bytes)
		if bytes > p.bytes {
			t.Errorf("%s: %d bytes per Play, pinned at %d", p.kind, bytes, p.bytes)
		}
	}
}
