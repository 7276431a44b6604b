package netsim

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"demuxabr/internal/ledger"
	"demuxabr/internal/media"
	"demuxabr/internal/trace"
)

// mallocs is testing.AllocsPerRun's count without its rounding: it calls
// f once to warm it, then runs more times at GOMAXPROCS(1), and returns
// the total number of heap objects those runs allocated. AllocsPerRun
// returns the mean rounded down to a whole number, so a pin of 0 on it
// passes with up to runs-1 allocations; a total of 0 passes with none.
func mallocs(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestScheduleStepAllocFree pins the event freelist: once warm, a
// schedule/fire cycle must not allocate at all. Before pooling, every
// Schedule allocated one Event — across a five-minute session that is
// hundreds of thousands of allocations per fleet job.
func TestScheduleStepAllocFree(t *testing.T) {
	pin := ledger.For(t).Bound("1000 cycles", "allocs")
	eng := NewEngine()
	fn := func() {}
	// Warm the freelist and the heap's backing array.
	eng.Schedule(eng.Now()+time.Millisecond, fn)
	eng.Step()
	n := mallocs(1000, func() {
		eng.Schedule(eng.Now()+time.Millisecond, fn)
		eng.Step()
	})
	if float64(n) > pin {
		t.Fatalf("1,000 schedule+step cycles in steady state allocate %d objects, pinned at %.0f (event pooling regressed)", n, pin)
	}
}

// TestCancelInOwnCallbackAfterPooling guards the recycling contract:
// cancelling the currently-firing event from inside its own callback must
// stay a no-op and must not corrupt a pending event that could otherwise
// have reused the object.
func TestCancelInOwnCallbackAfterPooling(t *testing.T) {
	eng := NewEngine()
	fired := 0
	var self Handle
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
	pins := ledger.For(t)
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
		pin := pins.Bound(tc.name+", 1000 ticks", "allocs")
		eng := NewEngine()
		link := tc.link(eng)
		for i := 0; i < 2; i++ {
			link.Start(1<<40, StartOptions{SampleEvery: 125 * time.Millisecond, OnSample: onSample})
		}
		eng.RunUntil(time.Second) // activate, bind the ticks, warm the freelist
		if n := mallocs(1000, func() { eng.Step() }); float64(n) > pin {
			t.Errorf("%s: 1,000 warm sample ticks allocate %d objects, pinned at %.0f", tc.name, n, pin)
		}
	}
}

// TestEngineFleetMixAllocFree pins BenchmarkEngineFleetMix at 0 allocs/op:
// a warm engine holding a fleet cell's pending mix fires and re-arms
// events without allocating.
func TestEngineFleetMixAllocFree(t *testing.T) {
	pin := ledger.For(t).Bound("1000 events", "allocs")
	eng := fleetMixEngine()
	if n := mallocs(1000, func() { eng.Step() }); float64(n) > pin {
		t.Fatalf("1,000 warm fleet-mix events allocate %d objects, pinned at %.0f", n, pin)
	}
}

// TestEngineLaneMixAllocFree pins BenchmarkEngineLaneMix at 0 allocs/op:
// a warm engine firing from its lanes and its heap allocates nothing.
func TestEngineLaneMixAllocFree(t *testing.T) {
	pin := ledger.For(t).Bound("1000 events", "allocs")
	eng := laneMixEngine()
	if n := mallocs(1000, func() { eng.Step() }); float64(n) > pin {
		t.Fatalf("1,000 warm lane-mix events allocate %d objects, pinned at %.0f", n, pin)
	}
}

// TestUplinkTickAllocFree pins BenchmarkUplinkTick at 0 allocs/op: a warm
// sample tick on a 16-leaf, 32-transfer tree allocates nothing.
func TestUplinkTickAllocFree(t *testing.T) {
	pin := ledger.For(t).Bound("1000 ticks", "allocs")
	eng, _ := uplinkTickTree()
	if n := mallocs(1000, func() { eng.Step() }); float64(n) > pin {
		t.Fatalf("1,000 warm uplink ticks allocate %d objects, pinned at %.0f", n, pin)
	}
}

// TestUplinkChangeAllocFree pins BenchmarkUplinkChange at 0 allocs/op: a
// warm activation and completion on a 16-leaf, 32-transfer tree allocates
// nothing.
func TestUplinkChangeAllocFree(t *testing.T) {
	pin := ledger.For(t).Bound("1000 changes", "allocs")
	change := uplinkChanger()
	if n := mallocs(1000, change); float64(n) > pin {
		t.Fatalf("1,000 warm activations and completions allocate %d objects, pinned at %.0f", n, pin)
	}
}

// TestCancelStaleHandleAfterRecycle pins the handle generation: a cancelled
// event goes straight back to the freelist, the next Schedule reuses it,
// and a Cancel through the old handle must then leave the new occupant
// alone.
func TestCancelStaleHandleAfterRecycle(t *testing.T) {
	eng := NewEngine()
	oldFired, newFired := false, false
	old := eng.Schedule(time.Millisecond, func() { oldFired = true })
	eng.Cancel(old)
	cur := eng.Schedule(2*time.Millisecond, func() { newFired = true })
	if cur.ev != old.ev {
		t.Fatal("the cancelled event was not recycled by the next Schedule")
	}
	if old.Pending() || !cur.Pending() {
		t.Fatalf("old handle pending %v, new handle pending %v; want false, true", old.Pending(), cur.Pending())
	}
	eng.Cancel(old) // stale: names the event's previous occupancy
	if err := eng.Run(100); err != nil {
		t.Fatal(err)
	}
	if oldFired || !newFired {
		t.Fatalf("old callback fired %v, new callback fired %v; want false, true", oldFired, newFired)
	}
}

// TestScheduleCancelAllocFree pins cancelled-event recycling: a warm
// schedule-then-cancel cycle (an uplink wake or underrun alarm re-armed
// before it fires) allocates nothing.
func TestScheduleCancelAllocFree(t *testing.T) {
	pin := ledger.For(t).Bound("1000 cycles", "allocs")
	eng := NewEngine()
	fn := func() {}
	eng.Cancel(eng.Schedule(time.Millisecond, fn)) // warm the freelist and the heap
	n := mallocs(1000, func() {
		eng.Cancel(eng.Schedule(eng.Now()+time.Millisecond, fn))
	})
	if float64(n) > pin {
		t.Fatalf("1,000 schedule+cancel cycles allocate %d objects, pinned at %.0f (cancelled events are not recycled)", n, pin)
	}
}

// TestCompletionReentrancy drives finishCompleted re-entrantly: two
// transfers finish on one link at one instant, and the first one's
// OnComplete releases itself, cancels an active sibling, starts two new
// ones and advances the engine until they finish too, so the link
// delivers a nested batch of completions while the outer batch is half
// walked.
// Every completion must fire exactly once, in order, and the released
// transfer must not be reused before its own notifications are done.
func TestCompletionReentrancy(t *testing.T) {
	eng := NewEngine()
	link := NewLink(eng, trace.Fixed(media.Kbps(8000))) // 1 MB/s
	var order []string
	var a, b, long, d, e *Transfer
	note := func(name string) func(*Transfer) {
		return func(*Transfer) { order = append(order, name) }
	}
	// A first batch leaves the link's scratch list with room for two, so
	// a nested batch that reused it would overwrite the outer one.
	link.Start(100, StartOptions{})
	link.Start(100, StartOptions{})
	eng.RunUntil(time.Millisecond)
	a = link.Start(1000, StartOptions{OnComplete: func(tr *Transfer) {
		order = append(order, "a")
		tr.Release()
		link.Cancel(long)
		d = link.Start(500, StartOptions{OnComplete: note("d")})
		e = link.Start(500, StartOptions{OnComplete: note("e")})
		if d == a || e == a {
			t.Error("a transfer released from its own OnComplete was reused before its notifications finished")
		}
		eng.RunUntil(eng.Now() + 10*time.Millisecond)
	}})
	b = link.Start(1000, StartOptions{OnComplete: note("b")})
	long = link.Start(1_000_000, StartOptions{OnComplete: note("long")})
	if err := eng.Run(1000); err != nil {
		t.Fatal(err)
	}
	if want := []string{"a", "d", "e", "b"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("completions fired %v, want %v", order, want)
	}
	if !b.Completed() || !d.Completed() || !e.Completed() || !long.Cancelled() {
		t.Fatalf("b, d, e completed %v %v %v, long cancelled %v", b.Completed(), d.Completed(), e.Completed(), long.Cancelled())
	}
	if next := link.Start(1, StartOptions{}); next != a {
		t.Fatal("the released transfer did not go back to the engine's freelist once finished with")
	}
}

// TestStrikeTimerHoldsReleasedTransfer covers the transport timer that
// reaches a transfer without a handle: an H1 loss strike armed for a
// request that is cancelled and released before its first byte. The
// transfer must stay out of the freelist until the strike has fired (and
// found it cancelled), so the strike never lands on a request that reused
// it.
func TestStrikeTimerHoldsReleasedTransfer(t *testing.T) {
	eng := NewEngine()
	link := NewLink(eng, trace.Fixed(media.Kbps(8000)))
	link.RTT = 100 * time.Millisecond
	tc := DefaultTransport(H1)
	tc.HandshakeRTTs, tc.LossRate = 0, 1 // every request is struck when its first byte lands
	conn := NewConn(link, tc, "conn")
	first := conn.Start(50_000, StartOptions{})
	eng.RunUntil(50 * time.Millisecond)
	link.Cancel(first)
	first.Release()
	second := conn.Start(50_000, StartOptions{})
	if second == first {
		t.Fatal("a transfer held by a pending strike timer was reused")
	}
	eng.RunUntil(120 * time.Millisecond) // the first strike fires on the cancelled transfer
	if third := conn.Start(1, StartOptions{}); third != first {
		t.Fatal("the released transfer was not recycled after its strike fired")
	}
	if err := eng.Run(1000); err != nil {
		t.Fatal(err)
	}
	// Only the live requests' strikes stall anything.
	if got := conn.Stats().HoLStalls; got != 2 {
		t.Fatalf("HoL stalls = %d, want 2 (second and third requests)", got)
	}
}

// TestConnReconnectStrikeAllocFree pins the transport's request path at
// zero allocations: once warm, a request on a connection that idled out
// reconnects at the resume price and takes a loss stall, without a
// recorder, and allocates nothing. H1 stalls the one stream a loss hits;
// H2 stalls both streams in flight on the shared connection.
func TestConnReconnectStrikeAllocFree(t *testing.T) {
	pins := ledger.For(t)
	for _, tc := range []struct {
		proto   Protocol
		streams int
	}{{H1, 1}, {H2, 2}} {
		pin := pins.Bound(tc.proto.String()+", 100 requests", "allocs")
		eng := NewEngine()
		link := NewLink(eng, trace.Fixed(media.Kbps(8000)))
		link.RTT = 50 * time.Millisecond
		cfg := DefaultTransport(tc.proto)
		cfg.IdleTimeout = 100 * time.Millisecond
		cfg.LossRate = 1 // every request is struck when its first byte lands
		conn := NewConn(link, cfg, "conn")
		trs := make([]*Transfer, tc.streams)
		request := func() {
			for i := range trs {
				trs[i] = conn.Start(50_000, StartOptions{})
			}
			if err := eng.Run(1000); err != nil {
				t.Fatal(err)
			}
			for _, tr := range trs {
				tr.Release()
			}
			eng.RunUntil(eng.Now() + 2*cfg.IdleTimeout) // the connection idles out
		}
		request() // the first-ever handshake binds the ticks and fills the pools
		request()
		before := conn.Stats()
		const runs = 100
		n := mallocs(runs, request)
		st := conn.Stats()
		if got := st.Resumes - before.Resumes; got != runs+1 {
			t.Fatalf("%v: %d resumes over %d requests: the connection did not idle out each time", tc.proto, got, runs+1)
		}
		if got := st.HoLStalls - before.HoLStalls; got < (runs+1)*tc.streams {
			t.Fatalf("%v: %d HoL stalls over %d requests of %d streams", tc.proto, got, runs+1, tc.streams)
		}
		if float64(n) > pin {
			t.Errorf("%v: %d warm reconnects with a loss stall allocate %d objects, pinned at %.0f", tc.proto, runs, n, pin)
		}
	}
}
