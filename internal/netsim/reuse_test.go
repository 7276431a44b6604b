package netsim

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"demuxabr/internal/ledger"
	"demuxabr/internal/media"
	"demuxabr/internal/trace"
)

// TestResetPanicsWithEventPending: an event pending in the heap or in a
// lane belongs to the simulation that scheduled it, so Reset refuses it.
func TestResetPanicsWithEventPending(t *testing.T) {
	for name, schedule := range map[string]func(*Engine){
		"heap": func(e *Engine) { e.After(time.Second, func() {}) },
		"lane": func(e *Engine) { e.Lane(time.Second).Add(func() {}) },
	} {
		eng := NewEngine()
		eng.RunUntil(time.Second)
		schedule(eng)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Reset with an event pending did not panic", name)
				}
			}()
			eng.Reset()
		}()
	}
	// Cancelled events are not pending: their dead lane entries go too.
	eng := NewEngine()
	eng.Cancel(eng.Lane(time.Second).Add(func() {}))
	eng.Cancel(eng.After(time.Second, func() {}))
	eng.Reset()
	if eng.Pending() != 0 || eng.lanes[0].n != 0 {
		t.Fatalf("after Reset: %d pending, %d entries in the lane", eng.Pending(), eng.lanes[0].n)
	}
}

// TestResetKeepsStaleHandlesStale: a handle taken before Reset names an
// occupancy of the last simulation. After Reset it is not pending, and
// cancelling through it is a no-op even once its Event holds a callback
// of the next simulation — in the heap and in a lane alike. Restarting the
// sequence counter would hand the reused Event the stale handle's
// generation.
func TestResetKeepsStaleHandlesStale(t *testing.T) {
	for name, schedule := range map[string]func(*Engine, func()) Handle{
		"heap": func(e *Engine, fn func()) Handle { return e.After(time.Second, fn) },
		"lane": func(e *Engine, fn func()) Handle { return e.Lane(time.Second).Add(fn) },
	} {
		eng := NewEngine()
		fired, cancelled := schedule(eng, func() {}), schedule(eng, func() {})
		eng.Cancel(cancelled)
		if err := eng.Run(10); err != nil {
			t.Fatal(err)
		}
		eng.Reset()
		ran := 0
		next := schedule(eng, func() { ran++ })
		again := schedule(eng, func() { ran++ })
		if next.ev != fired.ev && next.ev != cancelled.ev {
			t.Fatalf("%s: the next simulation's event is not a reused one", name)
		}
		for _, h := range []Handle{fired, cancelled} {
			if h.Pending() {
				t.Fatalf("%s: a handle from before Reset is pending after it", name)
			}
			eng.Cancel(h)
		}
		if !next.Pending() || !again.Pending() {
			t.Fatalf("%s: cancelling through a stale handle cancelled a reused event", name)
		}
		if err := eng.Run(10); err != nil {
			t.Fatal(err)
		}
		if ran != 2 {
			t.Fatalf("%s: %d of the next simulation's 2 events fired", name, ran)
		}
	}
}

// TestTransferMovesBetweenLinksClean releases a transfer on leaf A — RTT,
// weight, label, its own sampling interval, an outage, a loss strike — and
// takes it back on leaf B of the same engine. Apart from the callbacks
// bound to it, it must equal a transfer B makes new, and it must run on B
// as one: B's RTT, B's sampling interval, B's capacity.
func TestTransferMovesBetweenLinksClean(t *testing.T) {
	eng := NewEngine()
	up := NewUplink(eng, trace.Fixed(media.Kbps(20000)))
	a := up.NewLeaf(trace.Fixed(media.Kbps(4000)))
	a.RTT = 80 * time.Millisecond
	a.AddOutage(300*time.Millisecond, 500*time.Millisecond)
	tc := DefaultTransport(H1)
	tc.HandshakeRTTs, tc.LossRate, tc.Seed = 0, 1, 3
	conn := NewConn(a, tc, "a")
	var old *Transfer
	old = conn.Start(200_000, StartOptions{
		Label: "video", Weight: 3, SampleEvery: 100 * time.Millisecond,
		OnSample:   func(*Transfer, float64, time.Duration) {},
		OnComplete: func(tr *Transfer) { tr.Release() },
	})
	if err := eng.Run(10_000); err != nil {
		t.Fatal(err)
	}
	if !old.Completed() || conn.Stats().HoLStalls != 1 || len(eng.transfers) != 1 {
		t.Fatalf("completed %v, %d stalls, %d pooled: the transfer on A did not finish, strike and go back to the engine",
			old.Completed(), conn.Stats().HoLStalls, len(eng.transfers))
	}

	b := up.NewLeaf(trace.Fixed(media.Kbps(8000)))
	b.RTT = 10 * time.Millisecond
	var samples []time.Duration
	opts := StartOptions{
		SampleEvery: 250 * time.Millisecond,
		OnSample:    func(_ *Transfer, _ float64, d time.Duration) { samples = append(samples, d) },
	}
	reused := b.prepare(100_000, opts)
	fresh := b.prepare(100_000, opts)
	if reused != old || fresh == old {
		t.Fatal("B did not take the transfer A released")
	}
	unbound := func(tr *Transfer) Transfer {
		c := *tr
		c.activateTick, c.sampleTick, c.strikeTick, c.recoverTick = nil, nil, nil, nil
		c.onSample = nil
		return c
	}
	if got, want := unbound(reused), unbound(fresh); !reflect.DeepEqual(got, want) {
		t.Fatalf("the reused transfer carries A's state:\nreused %+v\nfresh  %+v", got, want)
	}
	start := eng.Now()
	b.scheduleActivation(reused)
	if err := eng.Run(10_000); err != nil {
		t.Fatal(err)
	}
	// 100 kB at 8 Mbps is 100 ms after B's 10 ms RTT.
	if reused.Started() != start+b.RTT || reused.Finished() != start+b.RTT+100*time.Millisecond {
		t.Fatalf("on B the transfer ran %v..%v, want %v..%v", reused.Started()-start, reused.Finished()-start,
			b.RTT, b.RTT+100*time.Millisecond)
	}
	if !reflect.DeepEqual(samples, []time.Duration{100 * time.Millisecond}) {
		t.Fatalf("samples %v, want only the final partial one (B samples every 250 ms)", samples)
	}
}

// cellScenario drives a small cell behind up: three leaves —
// one with an outage and a 100 ms sampler, one with H1 connections that
// lose packets and idle out, one with bare transfers cancelled mid-flight
// — each running a chain of requests that release their transfers. seed
// varies the sizes and pacing. It returns every engine step (time and
// pending count) and every callback, in firing order.
func cellScenario(t *testing.T, up *Uplink, seed int64) []string {
	t.Helper()
	eng := up.eng
	var log []string
	note := func(format string, args ...any) {
		log = append(log, fmt.Sprintf("%v ", eng.Now())+fmt.Sprintf(format, args...))
	}
	leaves := make([]*Link, 3)
	for i := range leaves {
		leaves[i] = up.NewLeaf(trace.Fixed(media.Kbps(float64(3000 + 1000*i))))
		leaves[i].RTT = time.Duration(20+10*i) * time.Millisecond
	}
	leaves[0].AddOutage(700*time.Millisecond, 1200*time.Millisecond)
	tc := DefaultTransport(H1)
	tc.LossRate, tc.Seed, tc.IdleTimeout = 0.4, seed, 300*time.Millisecond
	conn := NewConn(leaves[1], tc, fmt.Sprint("conn", seed))

	for i, l := range leaves {
		var next func(k int)
		next = func(k int) {
			if k == 6 {
				return
			}
			size := 20_000 + (seed*7919+int64(k*i+k))%60_000
			opts := StartOptions{Label: fmt.Sprint("leaf", i), OnComplete: func(tr *Transfer) {
				note("leaf %d request %d done %.0f", i, k, tr.Done())
				tr.Release()
				eng.After(time.Duration(k*13+int(seed%7))*time.Millisecond, func() { next(k + 1) })
			}}
			if i == 0 {
				opts.SampleEvery = 100 * time.Millisecond
				opts.OnSample = func(_ *Transfer, b float64, d time.Duration) { note("leaf 0 sample %.3f over %v", b, d) }
			}
			var tr *Transfer
			if i == 1 {
				tr = conn.Start(size, opts)
			} else {
				tr = l.Start(size, opts)
			}
			if i == 2 && k%3 == 1 {
				// Cancel before it can finish, release, and go on.
				eng.After(15*time.Millisecond, func() {
					note("leaf 2 request %d cancelled at %.0f", k, tr.Done())
					l.Cancel(tr)
					tr.Release()
					next(k + 1)
				})
			}
		}
		eng.After(time.Duration(i)*40*time.Millisecond, func() { next(0) })
	}
	for eng.Step() {
		log = append(log, fmt.Sprintf("step %v pending %d", eng.Now(), eng.Pending()))
	}
	note("conn %+v", conn.Stats())
	return log
}

// cellUplink is the uplink cellScenario's cells share.
func cellUplink(eng *Engine) *Uplink { return NewUplink(eng, cellProfile()) }

// cellProfile is the uplink capacity of the cell scenarios.
func cellProfile() trace.Profile { return trace.Fixed(media.Kbps(9000)) }

// TestResetEngineMatchesFreshEngine is the differential check of engine
// reuse: a cell run on an engine and uplink that already ran another cell,
// at another uplink capacity, and were reset, its leaves recycled, matches
// the same cell on a new engine and uplink event for event.
func TestResetEngineMatchesFreshEngine(t *testing.T) {
	want := cellScenario(t, cellUplink(NewEngine()), 2)
	eng := NewEngine()
	up := NewUplink(eng, trace.Fixed(media.Kbps(4000)))
	cellScenario(t, up, 1)
	if len(eng.free) == 0 || len(eng.transfers) == 0 {
		t.Fatalf("the first cell pooled %d events and %d transfers: nothing to reuse", len(eng.free), len(eng.transfers))
	}
	eng.Reset()
	up.Reset(cellProfile())
	got := cellScenario(t, up, 2)
	if !reflect.DeepEqual(got, want) {
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("a reset engine diverges at entry %d:\nreset %s\nfresh %s", i, got[i], want[i])
			}
		}
		t.Fatalf("a reset engine logs %d entries, a new one %d", len(got), len(want))
	}
	if !strings.Contains(strings.Join(want, "\n"), "cancelled") || strings.Contains(want[len(want)-1], "HoLStalls:0 ") {
		t.Fatal("the scenario no longer cancels or strikes")
	}
}

// TestEngineReuseAllocFree pins engine reuse across cells: a second cell
// of the same shape on a reset engine and uplink allocates no event, no
// transfer and no leaf (rows of the ratchet ledger, docs/PERFORMANCE.md).
// Every Event it schedules is one the first cell left in the engine's
// table, every transfer it starts is one the first cell released, all of
// them back on the freelist when it drains, and its leaves are the first
// cell's, in the same order.
func TestEngineReuseAllocFree(t *testing.T) {
	pins := ledger.For(t)
	eventPin, transferPin, leafPin := pins.Bound("new events", "allocs"), pins.Bound("new transfers", "allocs"), pins.Bound("new leaves", "allocs")
	eng := NewEngine()
	up := cellUplink(eng)
	cellScenario(t, up, 4)
	leaves := append([]*Link(nil), up.members...)
	events := len(eng.events)
	pooled := make(map[*Transfer]bool, len(eng.transfers))
	for _, tr := range eng.transfers {
		pooled[tr] = true
	}
	eng.Reset()
	up.Reset(cellProfile())
	cellScenario(t, up, 4)
	newLeaves := 0
	for _, l := range up.members {
		if !slices.Contains(leaves, l) {
			newLeaves++
		}
	}
	if float64(newLeaves) > leafPin {
		t.Errorf("the second cell made %d new leaves, pinned at %.0f", newLeaves, leafPin)
	} else if newLeaves == 0 && !slices.Equal(up.members, leaves) {
		t.Error("the second cell took the first cell's leaves in another order")
	}
	if n := len(eng.events) - events; float64(n) > eventPin {
		t.Errorf("the second cell made %d new events, pinned at %.0f", n, eventPin)
	}
	newTransfers := 0
	for _, tr := range eng.transfers {
		if !pooled[tr] {
			newTransfers++
		}
	}
	if float64(newTransfers) > transferPin {
		t.Errorf("the second cell made %d new transfers, pinned at %.0f", newTransfers, transferPin)
	}
	if len(eng.transfers) != len(pooled)+newTransfers {
		t.Fatalf("%d transfers pooled after the second cell, %d after the first and %d new", len(eng.transfers), len(pooled), newTransfers)
	}
}

// TestResetTakesTransfersOffTheWire: a transfer the last simulation left
// on the wire, stalled behind an uplink whose capacity dropped to zero for
// good, keeps its bytes done through Uplink.Reset. Its bytes go back to
// it, so the transfers of the next simulation, which fill the flat arrays
// it had a slot in, do not show through it.
func TestResetTakesTransfersOffTheWire(t *testing.T) {
	eng := NewEngine()
	dead := trace.MustSteps([]trace.Step{{At: 0, Rate: media.Kbps(8000)}, {At: time.Second, Rate: 0}}, 0)
	up := NewUplink(eng, dead)
	stalled := up.NewLeaf(trace.Fixed(media.Kbps(8000))).Start(10_000_000, StartOptions{})
	if err := eng.Run(100); err != nil {
		t.Fatal(err)
	}
	if got := stalled.Done(); got != 1_000_000 || stalled.Completed() {
		t.Fatalf("stalled transfer moved %v bytes, completed %v; want 1 MB in flight", got, stalled.Completed())
	}
	eng.Reset()
	up.Reset(trace.Fixed(media.Kbps(8000)))
	next := up.NewLeaf(trace.Fixed(media.Kbps(8000))).Start(10_000_000, StartOptions{})
	eng.RunUntil(3 * time.Second)
	up.advance()
	if got := next.Done(); got != 3_000_000 {
		t.Fatalf("the next simulation's transfer moved %v bytes, want 3 MB", got)
	}
	if got := stalled.Done(); got != 1_000_000 {
		t.Fatalf("after Reset the last simulation's transfer reads %v bytes done, want its own 1 MB", got)
	}
}
