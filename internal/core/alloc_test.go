//go:build !race

package core

import (
	"runtime"
	"sync/atomic"
	"testing"

	"demuxabr/internal/abr"
	"demuxabr/internal/ledger"
	"demuxabr/internal/media"
	"demuxabr/internal/trace"
)

// playVariants are the solo-sweep variants TestPlayAllocs measures, each
// a row of the ratchet ledger (docs/PERFORMANCE.md): the 11 VOD kinds
// demuxed, then best practice muxed. Each allocation bound is the
// measured count, which AllocsPerRun reads as a whole-number mean over its
// runs, so an allocation the runtime now and then makes of its own in one
// run does not show; each byte bound is the measured bytes plus about 1%.
var playVariants = []struct {
	kind  PlayerKind
	muxed bool
}{
	{ExoPlayerDASH, false},
	{ExoPlayerHLS, false},
	{Shaka, false},
	{DashJS, false},
	{BestPractice, false},
	{BestPracticeIndependent, false},
	{BestPracticeAbandon, false},
	{BolaJoint, false},
	{MPCJoint, false},
	{VBRJoint, false},
	{DynamicJoint, false},
	{BestPractice, true},
}

// playBytesRuns is how many Plays TestPlayAllocs reads the bytes over.
const playBytesRuns = 10

// TestPlayAllocs pins the allocations and the bytes allocated by one warm
// Play session on the Fig. 3 trace for every solo-sweep variant, which
// between them take every manifest parse path. A warm session takes its
// manifest from the memoized parse and its model from the parse's, so any
// per-session round trip or model derivation shows here, and a session
// that keeps a timeline nothing reads shows in its bytes. Bytes are read
// from runtime.MemStats.TotalAlloc over playBytesRuns runs after
// AllocsPerRun has warmed the process, on one P and averaged over the
// runs, as AllocsPerRun reads its count: the average keeps an allocation
// the runtime makes of its own now and then (it grows a type-assertion
// cache at random, see runtime/iface.go: 256 bytes in one run) to a tenth
// of that. The race detector changes allocation counts, so the test is
// built only without it (check.sh runs it in a step of its own).
func TestPlayAllocs(t *testing.T) {
	pins := ledger.For(t)
	for _, p := range playVariants {
		spec := Spec{Profile: trace.Fig3VaryingAvg600(), Player: p.kind, Muxed: p.muxed}
		name := string(p.kind)
		if p.muxed {
			name += " muxed"
		}
		allocPin, bytePin := pins.Bound(name, "allocs"), uint64(pins.Bound(name, "bytes"))
		var err error
		allocs := testing.AllocsPerRun(10, func() { _, err = Play(spec) })
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %.0f allocs per Play", name, allocs)
		if allocs > allocPin {
			t.Errorf("%s: %.0f allocs per Play, pinned at %.0f", name, allocs, allocPin)
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
		t.Logf("%s: %d bytes per Play", name, bytes)
		if bytes > bytePin {
			t.Errorf("%s: %d bytes per Play, pinned at %d", name, bytes, bytePin)
		}
	}
}

// TestPlayStateCrossesGoroutines: the state a Play gives back is the next
// Play's on any goroutine. On two Ps, one goroutine plays a session and
// then keeps its P busy, so the test's goroutine, which plays the same
// session next, runs on the other P. Its Play must read close to the warm
// count AllocsPerRun reads, not close to a Play that builds its engine,
// uplink, Pool and Session anew (about 90 more): the limit is halfway.
// MemStats read across two Ps now and then counts a warm Play's
// allocations twice, which stays well under it. Each attempt checks one
// handoff, and all of them must be warm.
func TestPlayStateCrossesGoroutines(t *testing.T) {
	spec := Spec{Profile: trace.Fig3VaryingAvg600(), Player: BestPractice}
	var err error
	warm := testing.AllocsPerRun(10, func() { _, err = Play(spec) })
	if err != nil {
		t.Fatal(err)
	}
	limit := (warm + float64(coldPlayAllocs(t, spec))) / 2
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for attempt := range 20 {
		played := make(chan error)
		var stop atomic.Bool
		go func() {
			_, err := Play(spec)
			played <- err
			for !stop.Load() {
			}
		}()
		if err := <-played; err != nil {
			stop.Store(true)
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Play(spec)
		runtime.ReadMemStats(&after)
		stop.Store(true)
		if err != nil {
			t.Fatal(err)
		}
		if n := after.Mallocs - before.Mallocs; float64(n) >= limit {
			t.Fatalf("attempt %d: a Play after another goroutine's made %d allocations, a warm one %.0f", attempt, n, warm)
		}
	}
}

// coldPlayAllocs returns the allocations of one Play of spec on new
// state: the free states are set aside for it, then put back over the
// one it made.
func coldPlayAllocs(t *testing.T, spec Spec) uint64 {
	t.Helper()
	saved := playStates.Drain()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Play(spec)
	runtime.ReadMemStats(&after)
	for _, st := range saved {
		playStates.Put(st)
	}
	if err != nil {
		t.Fatal(err)
	}
	return after.Mallocs - before.Mallocs
}

// modelSink keeps TestNewModelAllocs' models on the heap, as a session's.
var modelSink abr.Algorithm

// TestNewModelAllocs: NewModel is one allocation for every kind, the
// model itself; whatever a model derives from the manifest was built with
// the parse.
func TestNewModelAllocs(t *testing.T) {
	pin := ledger.For(t).Bound("every kind", "allocs")
	for _, kind := range PlayerKinds() {
		m, err := ParseManifest(kind, media.DramaShow(), ManifestOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(100, func() { modelSink = m.NewModel() }); allocs != pin {
			t.Errorf("%s: NewModel makes %.0f allocations, want %.0f", kind, allocs, pin)
		}
	}
	modelSink = nil
}

// nameSink keeps TestModelNamesAllocFree's names from being optimized away.
var nameSink string

// TestModelNamesAllocFree: Name allocates nothing for any kind's model.
// Each Play reads it twice (player.Result.ModelName and Session.Model).
func TestModelNamesAllocFree(t *testing.T) {
	pin := ledger.For(t).Bound("every kind", "allocs")
	for _, kind := range PlayerKinds() {
		model, _, err := BuildModel(kind, media.DramaShow(), ManifestOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(100, func() { nameSink = model.Name() }); allocs > pin {
			t.Errorf("%s: Name makes %.0f allocations, pinned at %.0f", kind, allocs, pin)
		}
	}
}
