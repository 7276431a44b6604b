package netsim

import (
	"testing"
	"time"

	"demuxabr/internal/media"
	"demuxabr/internal/trace"
)

// TestScheduleStepAllocFree pins the event freelist: once warm, a
// schedule/fire cycle must not allocate at all. Before pooling, every
// Schedule allocated one Event — across a five-minute session that is
// hundreds of thousands of allocations per fleet job.
func TestScheduleStepAllocFree(t *testing.T) {
	eng := NewEngine()
	fn := func() {}
	// Warm the freelist and the heap's backing array.
	eng.Schedule(eng.Now()+time.Millisecond, fn)
	eng.Step()
	allocs := testing.AllocsPerRun(1000, func() {
		eng.Schedule(eng.Now()+time.Millisecond, fn)
		eng.Step()
	})
	if allocs != 0 {
		t.Fatalf("schedule+step steady state allocates %.2f objects per cycle, want 0 (event pooling regressed)", allocs)
	}
}

// TestCancelInOwnCallbackAfterPooling guards the recycling contract:
// cancelling the currently-firing event from inside its own callback must
// stay a no-op and must not corrupt a pending event that could otherwise
// have reused the object.
func TestCancelInOwnCallbackAfterPooling(t *testing.T) {
	eng := NewEngine()
	fired := 0
	var self *Event
	self = eng.Schedule(time.Millisecond, func() {
		// Schedule first, then cancel our own (already-fired) handle: with
		// eager recycling the new event would be cancelled instead.
		eng.Schedule(eng.Now()+time.Millisecond, func() { fired++ })
		eng.Cancel(self)
	})
	if err := eng.Run(100); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("follow-up event fired %d times, want 1: Cancel of a fired event hit a recycled one", fired)
	}
}

// TestPoolReuseKeepsOrdering re-runs a scheduling pattern long enough to
// cycle the freelist and checks events still fire in (time, seq) order.
func TestPoolReuseKeepsOrdering(t *testing.T) {
	eng := NewEngine()
	var got []int
	for round := 0; round < 50; round++ {
		r := round
		base := eng.Now()
		eng.Schedule(base+2*time.Millisecond, func() { got = append(got, r*3+1) })
		eng.Schedule(base+time.Millisecond, func() { got = append(got, r*3) })
		eng.Schedule(base+2*time.Millisecond, func() { got = append(got, r*3+2) })
		eng.RunUntil(base + 3*time.Millisecond)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("firing order broke at position %d: got %d (full order %v...)", i, v, got[:i+1])
		}
	}
}

// TestSampleTickAllocFree pins the δ-sampler: once warm, a sample tick —
// integrate (through the cached allocation behind an uplink), report,
// re-arm — allocates nothing, on a standalone link and on an uplink leaf.
func TestSampleTickAllocFree(t *testing.T) {
	onSample := func(*Transfer, float64, time.Duration) {}
	for _, tc := range []struct {
		name string
		link func(*Engine) *Link
	}{
		{"solo", func(eng *Engine) *Link { return NewLink(eng, trace.Fixed(media.Kbps(6_000))) }},
		{"leaf", func(eng *Engine) *Link {
			return NewUplink(eng, trace.Fixed(media.Kbps(20_000))).NewLeaf(trace.Fixed(media.Kbps(6_000)))
		}},
	} {
		eng := NewEngine()
		link := tc.link(eng)
		for i := 0; i < 2; i++ {
			link.Start(1<<40, StartOptions{SampleEvery: 125 * time.Millisecond, OnSample: onSample})
		}
		eng.RunUntil(time.Second) // activate, bind the ticks, warm the freelist
		allocs := testing.AllocsPerRun(1000, func() { eng.Step() })
		if allocs != 0 {
			t.Errorf("%s: warm sample tick allocates %.2f objects, want 0", tc.name, allocs)
		}
	}
}

// TestEngineFleetMixAllocFree pins BenchmarkEngineFleetMix at 0 allocs/op:
// a warm engine holding a fleet cell's pending mix fires and re-arms
// events without allocating.
func TestEngineFleetMixAllocFree(t *testing.T) {
	eng := fleetMixEngine()
	if allocs := testing.AllocsPerRun(1000, func() { eng.Step() }); allocs != 0 {
		t.Fatalf("warm fleet-mix event allocates %.2f objects, want 0", allocs)
	}
}

// TestUplinkTickAllocFree pins BenchmarkUplinkTick at 0 allocs/op: a warm
// sample tick on a 16-leaf, 32-transfer tree allocates nothing.
func TestUplinkTickAllocFree(t *testing.T) {
	eng := uplinkTickTree()
	if allocs := testing.AllocsPerRun(1000, func() { eng.Step() }); allocs != 0 {
		t.Fatalf("warm uplink tick allocates %.2f objects, want 0", allocs)
	}
}
