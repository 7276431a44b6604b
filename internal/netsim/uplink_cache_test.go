package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"demuxabr/internal/media"
	"demuxabr/internal/trace"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// randomSteps draws a step profile with up to six rates in [lo, hi) Kbps,
// cyclic half the time. Rates are never zero: outages supply the dead
// spans, and a profile stuck at zero would keep samplers ticking forever.
func randomSteps(rng *rand.Rand, lo, hi int) trace.Profile {
	seq := []trace.Step{{At: 0, Rate: media.Kbps(float64(lo + rng.Intn(hi-lo)))}}
	for n := rng.Intn(6); n > 0; n-- {
		at := seq[len(seq)-1].At + ms(1+rng.Intn(4000))
		seq = append(seq, trace.Step{At: at, Rate: media.Kbps(float64(lo + rng.Intn(hi-lo)))})
	}
	var cycle time.Duration
	if rng.Intn(2) == 0 {
		cycle = seq[len(seq)-1].At + ms(1+rng.Intn(2000))
	}
	return trace.MustSteps(seq, cycle)
}

// checkCache asserts that wherever the uplink would reuse its cached
// allocation — at the integration mark or at the current instant, under
// the current version — the vector equals a forced recompute bit for bit
// and its horizon equals the freshly computed breakpoint. It restores the
// cache afterwards and returns how many instants it checked.
func checkCache(t *testing.T, u *Uplink, step int) int {
	t.Helper()
	total := u.activeTotal()
	if total == 0 {
		return 0
	}
	checked := 0
	for _, at := range [2]time.Duration{u.lastUpdate, u.eng.Now()} {
		if u.ratesVersion != u.version || at < u.ratesAt || at >= u.ratesUntil {
			continue // the next use recomputes anyway
		}
		cached := append([]float64(nil), u.rates...)
		version, from, until := u.ratesVersion, u.ratesAt, u.ratesUntil
		u.ratesUntil = 0 // an empty span forces the miss branch
		fresh := u.alloc(at, total)
		if len(fresh) != len(cached) {
			t.Fatalf("step %d at %v: cached %d rates, recompute %d", step, at, len(cached), len(fresh))
		}
		for i := range fresh {
			if math.Float64bits(fresh[i]) != math.Float64bits(cached[i]) {
				t.Fatalf("step %d at %v: transfer %d cached rate %v, recompute %v", step, at, i, cached[i], fresh[i])
			}
		}
		if u.ratesUntil != until {
			t.Fatalf("step %d at %v: cached horizon %v, recompute %v", step, at, until, u.ratesUntil)
		}
		u.ratesVersion, u.ratesAt, u.ratesUntil = version, from, until
		checked++
	}
	return checked
}

// runCacheScenario drives a seeded random uplink tree — step profiles on
// the uplink and every leaf, mixed weights and sizes, δ-samplers on half
// the transfers, and outages, suspends, resumes and cancels mid-run — and
// returns a log of every observable: samples, completions and the final
// state of each transfer, with float values as exact bits. With force set
// the cache is invalidated before every event, so each event recomputes
// the allocation; otherwise every event is followed by checkCache.
func runCacheScenario(t *testing.T, seed int64, force bool) (log []string, checked int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	eng := NewEngine()
	up := NewUplink(eng, randomSteps(rng, 2000, 20000))
	leaves := make([]*Link, 2+rng.Intn(5))
	for i := range leaves {
		leaves[i] = up.NewLeaf(randomSteps(rng, 300, 9000))
		leaves[i].RTT = ms(rng.Intn(3) * 40)
	}
	logf := func(format string, args ...any) {
		log = append(log, fmt.Sprintf("%v "+format, append([]any{eng.Now()}, args...)...))
	}
	weights := []float64{0.5, 1, 1, 2, 3.7}
	var trs []*Transfer
	for i := 0; i < 40; i++ {
		leaf := leaves[rng.Intn(len(leaves))]
		size := int64(10_000 + rng.Intn(3_000_000))
		opts := StartOptions{
			Label:  fmt.Sprint(i),
			Weight: weights[rng.Intn(len(weights))],
			OnComplete: func(tr *Transfer) {
				logf("done %s %x", tr.Label, math.Float64bits(tr.Done()))
			},
		}
		if rng.Intn(2) == 0 {
			opts.SampleEvery = 125 * time.Millisecond
			opts.OnSample = func(tr *Transfer, bytes float64, iv time.Duration) {
				logf("sample %s %x %v", tr.Label, math.Float64bits(bytes), iv)
			}
		}
		eng.Schedule(ms(rng.Intn(20000)), func() { trs = append(trs, leaf.Start(size, opts)) })
	}
	for i := 0; i < 30; i++ {
		op := rng.Intn(3)
		eng.Schedule(ms(rng.Intn(25000)), func() {
			switch op {
			case 0:
				leaf := leaves[rng.Intn(len(leaves))]
				start := eng.Now() + ms(rng.Intn(2000))
				leaf.AddOutage(start, start+ms(1+rng.Intn(3000)))
				logf("outage %v", start)
			case 1:
				if len(trs) == 0 {
					return
				}
				tr := trs[rng.Intn(len(trs))]
				if tr.link.Suspend(tr) {
					logf("suspend %s", tr.Label)
					eng.After(ms(rng.Intn(2000)), func() { tr.link.Resume(tr) })
				}
			case 2:
				if len(trs) == 0 {
					return
				}
				tr := trs[rng.Intn(len(trs))]
				tr.link.Cancel(tr)
				logf("cancel %s %v", tr.Label, tr.Cancelled())
			}
		})
	}
	for step := 0; ; step++ {
		if force {
			up.ratesUntil = 0
		}
		if !eng.Step() {
			break
		}
		if step > 2_000_000 {
			t.Fatalf("seed %d: scenario did not drain", seed)
		}
		if !force {
			checked += checkCache(t, up, step)
		}
	}
	for _, tr := range trs {
		logf("final %s %x completed=%v cancelled=%v finished=%v",
			tr.Label, math.Float64bits(tr.Done()), tr.Completed(), tr.Cancelled(), tr.Finished())
	}
	return log, checked
}

// TestUplinkAllocCacheDifferential is the differential test of the
// allocation cache: on seeded random trees, every reuse of the cached
// vector equals a forced recompute bit for bit, and a run that recomputes
// at every event produces the identical log of samples and completions.
func TestUplinkAllocCacheDifferential(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		cached, checked := runCacheScenario(t, seed, false)
		forced, _ := runCacheScenario(t, seed, true)
		if checked == 0 {
			t.Fatalf("seed %d: the cache was never reused", seed)
		}
		if len(cached) != len(forced) {
			t.Fatalf("seed %d: cached run logged %d lines, forced recompute %d", seed, len(cached), len(forced))
		}
		for i := range cached {
			if cached[i] != forced[i] {
				t.Fatalf("seed %d line %d:\ncached: %s\nforced: %s", seed, i, cached[i], forced[i])
			}
		}
	}
}
