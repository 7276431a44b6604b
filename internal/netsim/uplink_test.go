package netsim

import (
	"math"
	"testing"
	"time"

	"demuxabr/internal/media"
	"demuxabr/internal/trace"
)

// integrate computes the bytes a profile delivers over [0, horizon] by
// stepping its breakpoints — the ground truth the fluid link must conserve.
func integrate(p trace.Profile, horizon time.Duration) float64 {
	total := 0.0
	t := time.Duration(0)
	for t < horizon {
		next, ok := p.NextChange(t)
		if !ok || next > horizon {
			next = horizon
		}
		total += float64(p.RateAt(t)) * (next - t).Seconds() / 8
		t = next
	}
	return total
}

// TestLinkConservationAndWeightShares is the invariant the fleet subsystem
// leans on: K concurrent weighted transfers over a varying profile deliver,
// in total, exactly the integrated link capacity, split by weight.
func TestLinkConservationAndWeightShares(t *testing.T) {
	profile := trace.MustSteps([]trace.Step{
		{At: 0, Rate: media.Kbps(4000)},
		{At: 7 * time.Second, Rate: media.Kbps(1500)},
		{At: 12 * time.Second, Rate: media.Kbps(6000)},
		{At: 21 * time.Second, Rate: media.Kbps(800)},
		{At: 25 * time.Second, Rate: media.Kbps(3000)},
	}, 0)
	weights := []float64{1, 2, 0.5, 4, 1.5}
	const horizon = 31 * time.Second

	eng := NewEngine()
	link := NewLink(eng, profile)
	const huge = 1 << 40 // never completes within the horizon
	trs := make([]*Transfer, len(weights))
	for i, w := range weights {
		trs[i] = link.Start(huge, StartOptions{Weight: w})
	}
	eng.RunUntil(horizon)
	link.up.advance()

	want := integrate(profile, horizon)
	got := 0.0
	totalW := 0.0
	for i := range trs {
		got += trs[i].Done()
		totalW += weights[i]
	}
	if math.Abs(got-want) > completionSlack*float64(len(trs)) {
		t.Fatalf("total bytes %.2f, integrated capacity %.2f", got, want)
	}
	for i, tr := range trs {
		share := want * weights[i] / totalW
		if math.Abs(tr.Done()-share) > completionSlack*float64(len(trs)) {
			t.Errorf("transfer %d (weight %g): got %.2f bytes, want share %.2f",
				i, weights[i], tr.Done(), share)
		}
	}
}

// TestLinkConservationWithCompletions repeats the conservation check when
// transfers finish mid-run and capacity redistributes to the survivors.
func TestLinkConservationWithCompletions(t *testing.T) {
	profile := trace.MustSteps([]trace.Step{
		{At: 0, Rate: media.Kbps(2000)},
		{At: 10 * time.Second, Rate: media.Kbps(500)},
		{At: 20 * time.Second, Rate: media.Kbps(4000)},
	}, 0)
	eng := NewEngine()
	link := NewLink(eng, profile)
	sizes := []int64{500_000, 1_500_000, 1 << 40}
	trs := make([]*Transfer, len(sizes))
	for i, sz := range sizes {
		trs[i] = link.Start(sz, StartOptions{})
	}
	const horizon = 40 * time.Second
	eng.RunUntil(horizon)
	link.up.advance()

	want := integrate(profile, horizon)
	got := 0.0
	for _, tr := range trs {
		got += tr.Done()
	}
	if math.Abs(got-want) > completionSlack*float64(len(trs)) {
		t.Fatalf("total bytes %.2f, integrated capacity %.2f", got, want)
	}
	if !trs[0].Completed() || !trs[1].Completed() {
		t.Fatalf("finite transfers should have completed (done: %v %v)",
			trs[0].Completed(), trs[1].Completed())
	}
}

// TestUplinkSoloEquivalence pins a lone unit-weight transfer to the closed
// form of its profile. 4,000,000 B over 3000/1000/5000 Kbps steps at
// 0/5/10 s moves 1,875,000 B by 5 s and 2,500,000 B by 10 s; the last
// 1,500,000 B at 625,000 B/s take 2.4 s more. A standalone link, a leaf
// behind a 1 Gbps uplink, and that leaf beside a weight-6 cross-traffic
// flow on a sibling leaf must all finish at 12.4 s: an uplink that never
// binds leaves the leaf's own profile as the only constraint.
func TestUplinkSoloEquivalence(t *testing.T) {
	profile := trace.MustSteps([]trace.Step{
		{At: 0, Rate: media.Kbps(3000)},
		{At: 5 * time.Second, Rate: media.Kbps(1000)},
		{At: 10 * time.Second, Rate: media.Kbps(5000)},
	}, 0)
	const size = 4_000_000
	const want = 12400 * time.Millisecond
	gbps := func(eng *Engine) *Uplink { return NewUplink(eng, trace.Fixed(media.Kbps(1_000_000))) }
	for _, tc := range []struct {
		name string
		link func(*Engine) *Link
	}{
		{"standalone", func(eng *Engine) *Link { return NewLink(eng, profile) }},
		{"leaf", func(eng *Engine) *Link { return gbps(eng).NewLeaf(profile) }},
		{"leaf beside cross-traffic", func(eng *Engine) *Link {
			up := gbps(eng)
			up.NewLeaf(trace.Fixed(media.Kbps(100_000))).StartCrossTraffic(6, 0, 20*time.Second)
			return up.NewLeaf(profile)
		}},
	} {
		eng := NewEngine()
		var done time.Duration
		tc.link(eng).Start(size, StartOptions{OnComplete: func(tr *Transfer) { done = tr.Finished() }})
		if err := eng.Run(1_000_000); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if d := done - want; d < -time.Nanosecond || d > time.Nanosecond {
			t.Errorf("%s: finished at %v, want %v within 1ns", tc.name, done, want)
		}
	}
}

// TestUplinkMaxMinAllocation pins the progressive-filling allocator against
// hand-computed weighted max-min rates in a static three-leaf tree where
// both a leaf and the uplink bind.
func TestUplinkMaxMinAllocation(t *testing.T) {
	eng := NewEngine()
	// Uplink 10 Mbps shared by three leaves: A capped at 1 Mbps (its own
	// bottleneck), B and C at 8 Mbps each. B carries two transfers with
	// weights 1 and 3.
	//
	// Progressive filling: round 1 fill = min(10/6, 1/1, 8/4, 8/1) = 1 —
	// leaf A saturates, A freezes at 1 Mbps. Round 2 over the remaining
	// 9 Mbps of uplink with weights {B1:1, B2:3, C:1}: fill = min(9/5,
	// 8/4, 8/1) = 1.8 — the uplink saturates, so B1 = 1.8, B2 = 5.4,
	// C = 1.8 Mbps (B's leaf sees 7.2 ≤ 8, not binding).
	up := NewUplink(eng, trace.Fixed(media.Kbps(10_000)))
	a := up.NewLeaf(trace.Fixed(media.Kbps(1_000)))
	b := up.NewLeaf(trace.Fixed(media.Kbps(8_000)))
	c := up.NewLeaf(trace.Fixed(media.Kbps(8_000)))

	const huge = 1 << 40
	trA := a.Start(huge, StartOptions{})
	trB1 := b.Start(huge, StartOptions{Weight: 1})
	trB2 := b.Start(huge, StartOptions{Weight: 3})
	trC := c.Start(huge, StartOptions{})

	const horizon = 10 * time.Second
	eng.RunUntil(horizon)
	up.advance()

	check := func(name string, tr *Transfer, kbps float64) {
		t.Helper()
		want := kbps * 1000 * horizon.Seconds() / 8
		if math.Abs(tr.Done()-want) > 1 {
			t.Errorf("%s: got %.1f bytes, want %.1f (rate %g kbps)", name, tr.Done(), want, kbps)
		}
	}
	check("A", trA, 1000)
	check("B1", trB1, 1800)
	check("B2", trB2, 5400)
	check("C", trC, 1800)
}

// TestUplinkConservation: when the uplink is the only binding constraint,
// total delivered bytes across all leaves equal its integrated capacity
// and split by transfer weight — the two-tier version of the conservation
// property.
func TestUplinkConservation(t *testing.T) {
	uplinkProfile := trace.MustSteps([]trace.Step{
		{At: 0, Rate: media.Kbps(9000)},
		{At: 8 * time.Second, Rate: media.Kbps(3000)},
		{At: 14 * time.Second, Rate: media.Kbps(12000)},
	}, 0)
	eng := NewEngine()
	up := NewUplink(eng, uplinkProfile)
	weights := []float64{1, 2, 1, 4}
	const huge = 1 << 40
	trs := make([]*Transfer, len(weights))
	for i, w := range weights {
		leaf := up.NewLeaf(trace.Fixed(media.Kbps(100_000))) // generous: never binds
		trs[i] = leaf.Start(huge, StartOptions{Weight: w})
	}
	const horizon = 24 * time.Second
	eng.RunUntil(horizon)
	up.advance()

	want := integrate(uplinkProfile, horizon)
	got, totalW := 0.0, 0.0
	for i := range trs {
		got += trs[i].Done()
		totalW += weights[i]
	}
	if math.Abs(got-want) > completionSlack*float64(len(trs)) {
		t.Fatalf("total bytes %.2f, integrated uplink capacity %.2f", got, want)
	}
	for i, tr := range trs {
		share := want * weights[i] / totalW
		if math.Abs(tr.Done()-share) > completionSlack*float64(len(trs)) {
			t.Errorf("transfer %d (weight %g): got %.2f, want share %.2f",
				i, weights[i], tr.Done(), share)
		}
	}
}

// TestUplinkCompletionRedistributes: after one leaf's transfer completes,
// its uplink share flows to the remaining leaves.
func TestUplinkCompletionRedistributes(t *testing.T) {
	eng := NewEngine()
	up := NewUplink(eng, trace.Fixed(media.Kbps(8_000)))
	a := up.NewLeaf(trace.Fixed(media.Kbps(100_000)))
	b := up.NewLeaf(trace.Fixed(media.Kbps(100_000)))

	// A: 2 MB at 4 Mbps (fair half) completes at t=4s. B then takes the
	// full 8 Mbps, so over 10 s it moves 4s·0.5 MB/s + 6s·1 MB/s = 8 MB.
	var aDone time.Duration
	a.Start(2_000_000, StartOptions{OnComplete: func(tr *Transfer) { aDone = tr.Finished() }})
	trB := b.Start(1<<40, StartOptions{})
	const horizon = 10 * time.Second
	eng.RunUntil(horizon)
	up.advance()

	if want := 4 * time.Second; aDone != want {
		t.Fatalf("A completed at %v, want %v", aDone, want)
	}
	if want := 8_000_000.0; math.Abs(trB.Done()-want) > 1 {
		t.Fatalf("B moved %.1f bytes, want %.1f", trB.Done(), want)
	}
}

// TestCrossTrafficRestartsBlocks is the regression test for the
// StartCrossTraffic fix: on a link fast enough to drain the 1 GiB block
// mid-window, the competing flow must restart so a probe transfer keeps
// its fair share for the whole window.
func TestCrossTrafficRestartsBlocks(t *testing.T) {
	eng := NewEngine()
	// 10 Gbps: a 1 GiB block at half share drains in ~1.7 s, so a 60 s
	// window needs ~35 restarts.
	link := NewLink(eng, trace.Fixed(media.Kbps(10_000_000)))
	const window = 60 * time.Second
	link.StartCrossTraffic(1, 0, window)

	probe := link.Start(1<<62, StartOptions{})
	eng.RunUntil(window)
	link.up.advance()

	// With the competing flow alive throughout, the probe gets half the
	// capacity. Without the restart fix the cross flow dies after one block
	// and the probe takes nearly everything.
	capacity := 10_000_000.0 * 1000 / 8 * window.Seconds()
	want := capacity / 2
	if got := probe.Done(); math.Abs(got-want) > capacity*0.01 {
		t.Fatalf("probe moved %.3g bytes, want fair half %.3g", got, want)
	}

	// The window must still close: past stop only the probe remains active.
	if n := link.ActiveTransfers(); n != 1 {
		t.Fatalf("after window close want 1 active transfer (probe), got %d", n)
	}
}

// TestCrossTrafficSlowLinkUnchanged pins the pre-fix behaviour on slow
// links (the regime every existing experiment runs in): one block never
// completes, and the flow still vanishes exactly at stop.
func TestCrossTrafficSlowLinkUnchanged(t *testing.T) {
	eng := NewEngine()
	link := NewLink(eng, trace.Fixed(media.Kbps(2500)))
	link.StartCrossTraffic(2, 10*time.Second, 110*time.Second)
	probe := link.Start(1<<40, StartOptions{})
	eng.RunUntil(200 * time.Second)
	link.up.advance()
	// 10 s alone + 100 s at 1/3 share + 90 s alone, at 312500 B/s.
	want := 312_500.0 * (10 + 100.0/3 + 90)
	if math.Abs(probe.Done()-want) > 2 {
		t.Fatalf("probe moved %.1f bytes, want %.1f", probe.Done(), want)
	}
}

// TestUplinkIdleNoWake: an uplink tree with no active transfers must not
// keep generating wake events for cyclic profiles — Run must drain.
func TestUplinkIdleNoWake(t *testing.T) {
	eng := NewEngine()
	up := NewUplink(eng, trace.SquareWave(media.Kbps(5000), media.Kbps(500), 2*time.Second, 2*time.Second))
	leaf := up.NewLeaf(trace.SquareWave(media.Kbps(4000), media.Kbps(400), 2*time.Second, time.Second))
	done := false
	leaf.Start(100_000, StartOptions{OnComplete: func(*Transfer) { done = true }})
	if err := eng.Run(1_000); err != nil {
		t.Fatalf("idle uplink kept scheduling: %v", err)
	}
	if !done {
		t.Fatal("transfer never completed")
	}
	if eng.Pending() != 0 {
		t.Fatalf("engine still has %d pending events after drain", eng.Pending())
	}
}

// TestUplinkExtraDelay: StartOptions.ExtraDelay postpones the first byte
// beyond the RTT (the CDN miss penalty path).
func TestUplinkExtraDelay(t *testing.T) {
	eng := NewEngine()
	link := NewLink(eng, trace.Fixed(media.Kbps(8000))) // 1 MB/s
	link.RTT = 50 * time.Millisecond
	var finished time.Duration
	link.Start(1_000_000, StartOptions{
		ExtraDelay: 200 * time.Millisecond,
		OnComplete: func(tr *Transfer) { finished = tr.Finished() },
	})
	if err := eng.Run(1_000); err != nil {
		t.Fatal(err)
	}
	if want := 1250 * time.Millisecond; finished != want {
		t.Fatalf("finished at %v, want %v (RTT+extra+1s transfer)", finished, want)
	}
}

// uplinkTickTree returns a warm engine driving a 16-leaf uplink tree with
// two endless δ-sampled transfers per leaf, activated at staggered instants
// so that each sample tick integrates the whole tree, and the tree's
// uplink. Nearly every pending event is a sample tick; the group wake is at
// the far completion.
func uplinkTickTree() (*Engine, *Uplink) {
	eng := NewEngine()
	up := NewUplink(eng, trace.Fixed(media.Kbps(24_000)))
	onSample := func(*Transfer, float64, time.Duration) {}
	for i := 0; i < 16; i++ {
		leaf := up.NewLeaf(trace.Fixed(media.Kbps(6_000)))
		for j := 0; j < 2; j++ {
			eng.Schedule(time.Duration(2*i+j)*3*time.Millisecond, func() {
				leaf.Start(1<<40, StartOptions{SampleEvery: 125 * time.Millisecond, OnSample: onSample})
			})
		}
	}
	eng.RunUntil(time.Second) // activate, bind the ticks, warm the freelist
	return eng, up
}

// BenchmarkUplinkTick times one warm δ-sample tick on a 16-leaf,
// 32-transfer uplink tree: integrate the tree, report, re-arm.
func BenchmarkUplinkTick(b *testing.B) {
	eng, _ := uplinkTickTree()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

// uplinkChanger returns a function that starts a 100-byte transfer on the
// next leaf of a warm uplinkTickTree, in turn, and steps the engine until
// the transfer completes: one activation and one completion, each a change
// of the active set that lays the tree's state out again, refills the
// allocation and re-arms the group wake. At about 90 kB/s a short
// transfer takes 1.1 ms, so a sample tick falls due during one change in
// four. The transfer is released on completion, so the next change reuses
// it.
func uplinkChanger() func() {
	eng, up := uplinkTickTree()
	done := false
	opts := StartOptions{OnComplete: func(tr *Transfer) {
		tr.Release()
		done = true
	}}
	next := 0
	change := func() {
		done = false
		up.members[next].Start(100, opts)
		next = (next + 1) % len(up.members)
		for !done {
			eng.Step()
		}
	}
	// A first round over the leaves makes the transfer the later changes
	// reuse and grows each leaf's active and finished lists.
	for range up.members {
		change()
	}
	return change
}

// BenchmarkUplinkChange times one activation and one completion on the
// 16-leaf, 32-transfer uplink tree of BenchmarkUplinkTick: the solver's
// per-change path (activeTotal, alloc, reschedule) with the sample ticks
// that fall due meanwhile.
func BenchmarkUplinkChange(b *testing.B) {
	change := uplinkChanger()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		change()
	}
}
