package netsim

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"demuxabr/internal/media"
	"demuxabr/internal/timeline"
	"demuxabr/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden uplink scenario hashes in testdata/")

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

// allocReference is the per-transfer progressive fill the leg fill
// replaced, kept as its oracle: it recomputes the weighted max-min rates of
// u's transfers at t from scratch, with a frozen flag per transfer and a
// weight, remaining capacity and saturation flag per constraint
// (constraint 0 the uplink, 1+i member i), rezeroed every round.
func allocReference(u *Uplink, t time.Duration) []float64 {
	total := 0
	for _, l := range u.members {
		total += len(l.active)
	}
	nc := len(u.members) + 1
	rates := make([]float64, total)
	frozen := make([]bool, total)
	weight := make([]float64, nc)
	remain := make([]float64, nc)
	sat := make([]bool, nc)
	remain[0] = float64(u.profile.RateAt(t))
	for i, l := range u.members {
		remain[1+i] = l.rateAt(t)
	}
	for {
		for c := range weight {
			weight[c] = 0
		}
		k, unfrozen := 0, 0
		for i, l := range u.members {
			for _, tr := range l.active {
				if !frozen[k] {
					unfrozen++
					weight[0] += tr.weight
					weight[1+i] += tr.weight
				}
				k++
			}
		}
		if unfrozen == 0 {
			return rates
		}
		fill := math.Inf(1)
		for c := range remain {
			if weight[c] > 0 {
				if r := remain[c] / weight[c]; r < fill {
					fill = r
				}
			}
		}
		if fill < 0 {
			fill = 0
		}
		for c := range remain {
			sat[c] = weight[c] > 0 && remain[c]/weight[c] <= fill
		}
		k = 0
		for i, l := range u.members {
			for _, tr := range l.active {
				if !frozen[k] && (sat[0] || sat[1+i]) {
					r := fill * tr.weight
					rates[k] = r
					frozen[k] = true
					remain[0] -= r
					remain[1+i] -= r
				}
				k++
			}
		}
		for c := range remain {
			if remain[c] < 0 {
				remain[c] = 0
			}
		}
	}
}

// checkFill asserts that the uplink's freshly computed rates equal
// allocReference's bit for bit.
func checkFill(t *testing.T, u *Uplink, at time.Duration) {
	t.Helper()
	want := allocReference(u, at)
	if len(u.rates) != len(want) {
		t.Fatalf("fill at %v: %d rates, reference %d", at, len(u.rates), len(want))
	}
	for i := range want {
		if math.Float64bits(u.rates[i]) != math.Float64bits(want[i]) {
			t.Fatalf("fill at %v: transfer %d rate %v, reference %v", at, i, u.rates[i], want[i])
		}
	}
}

// eagerIntegrator is the integration the flat arrays replaced, kept as
// their oracle. It holds every in-flight transfer's bytes done itself and,
// after each advance, walks the loaded legs → members → *Transfer adding
// rate·elapsed/8 to each, clamped to its size, as advance did when the
// bytes lived on the transfers. It notes the instant each transfer first
// comes within completionSlack of its size, the instant the solver must
// complete it, and checks every in-flight transfer's Done against its own
// value, bit for bit, after every advance.
type eagerIntegrator struct {
	t      *testing.T
	done   map[*Transfer]float64
	mark   map[*Transfer]float64 // bytes at the last sample
	finish map[*Transfer]time.Duration
	bad    int
}

func newEagerIntegrator(t *testing.T) *eagerIntegrator {
	return &eagerIntegrator{t: t, done: map[*Transfer]float64{}, mark: map[*Transfer]float64{},
		finish: map[*Transfer]time.Duration{}}
}

// attach runs the reference beside u's solver.
func (r *eagerIntegrator) attach(u *Uplink) {
	u.integrated = func(elapsed float64) { r.step(u, elapsed) }
}

func (r *eagerIntegrator) step(u *Uplink, elapsed float64) {
	k := 0
	for i, g := range u.legs {
		if g.n == 0 {
			continue
		}
		for _, tr := range u.members[i].active {
			d := r.done[tr] + u.rates[k]*elapsed/8
			if d > float64(tr.size) {
				d = float64(tr.size)
			}
			r.done[tr] = d
			if _, ok := r.finish[tr]; !ok && float64(tr.size)-d < completionSlack {
				r.finish[tr] = u.eng.Now()
			}
			if got := tr.Done(); math.Float64bits(got) != math.Float64bits(d) && r.bad < 5 {
				r.bad++
				r.t.Errorf("at %v transfer %s: the solver has %v bytes done, the eager walk %v", u.eng.Now(), tr.Label, got, d)
			}
			k++
		}
	}
}

// sampled returns the bytes the reference moved since the transfer's last
// sample: up to its size once it has completed.
func (r *eagerIntegrator) sampled(tr *Transfer) float64 {
	cur := r.done[tr]
	if tr.Completed() {
		cur = float64(tr.Size())
	}
	bytes := cur - r.mark[tr]
	r.mark[tr] = cur
	return bytes
}

// forget drops a transfer that left the wire for good, before its owner
// releases it for reuse.
func (r *eagerIntegrator) forget(tr *Transfer) {
	delete(r.done, tr)
	delete(r.mark, tr)
	delete(r.finish, tr)
}

// runIntegratorScenario drives seeded random trees beside eagerIntegrator
// and returns two logs of every sample's bytes, every completion instant
// and Done at each cancel: what the solver reported, and what the eager
// walk says it must. Three simulations run on one engine, each on an
// uplink and a standalone link (the only leaf of an unbounded uplink of
// its own) that are reset in between: 16 to 20 leaves with step profiles
// and RTTs, weights from {0.5, 1, 2, 3.7}, δ-samplers on half the
// transfers, outages, Suspend and Resume, and cancels at random instants
// and from inside completion and sample callbacks. Every transfer is
// released when it leaves the wire, so later ones reuse it, on any leaf of
// either uplink. It also returns how many transfers moved to a leaf of the
// other uplink, and how many cancels came from inside a callback.
func runIntegratorScenario(t *testing.T, seed int64) (got, want []string, moved, nested int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	eng := NewEngine()
	ref := newEagerIntegrator(t)
	up := NewUplink(eng, randomSteps(rng, 4000, 40000))
	solo := NewUplink(eng, trace.Fixed(math.MaxInt64))
	ref.attach(up)
	ref.attach(solo)
	weights := []float64{0.5, 1, 2, 3.7}
	lastUp := map[*Transfer]*Uplink{}
	for run := 0; run < 3; run++ {
		if run > 0 {
			eng.Reset()
			up.Reset(randomSteps(rng, 4000, 40000))
			solo.Reset(trace.Fixed(math.MaxInt64))
		}
		logBoth := func(format string, gotArgs, wantArgs []any) {
			prefix := fmt.Sprintf("run %d %v ", run, eng.Now())
			got = append(got, prefix+fmt.Sprintf(format, gotArgs...))
			want = append(want, prefix+fmt.Sprintf(format, wantArgs...))
		}
		links := make([]*Link, 16+rng.Intn(5))
		for i := range links {
			links[i] = up.NewLeaf(randomSteps(rng, 300, 9000))
			links[i].RTT = ms(rng.Intn(3) * 30)
		}
		links = append(links, solo.NewLeaf(randomSteps(rng, 300, 9000)))
		var live []*Transfer
		// cancel cancels tr unless it has left the wire already, and
		// reports whether it did.
		cancel := func(tr *Transfer) bool {
			if tr.Completed() || tr.Cancelled() {
				return false
			}
			tr.link.Cancel(tr)
			if !tr.Cancelled() {
				return false // it completed at this very instant
			}
			logBoth("cancel %s %x", []any{tr.Label, math.Float64bits(tr.Done())},
				[]any{tr.Label, math.Float64bits(ref.done[tr])})
			ref.forget(tr)
			tr.Release()
			return true
		}
		pick := func() *Transfer {
			if len(live) == 0 {
				return nil
			}
			return live[rng.Intn(len(live))]
		}
		var start func(i int)
		start = func(i int) {
			l := links[rng.Intn(len(links))]
			opts := StartOptions{
				Label:  fmt.Sprintf("%d.%d", run, i),
				Weight: weights[rng.Intn(len(weights))],
			}
			opts.OnComplete = func(tr *Transfer) {
				logBoth("done %s at %v", []any{tr.Label, eng.Now()}, []any{tr.Label, ref.finish[tr]})
				ref.forget(tr)
				switch rng.Intn(4) {
				case 0:
					if other := pick(); other != nil && cancel(other) {
						nested++
					}
				case 1:
					if i < 400 {
						start(i + 1000)
					}
				}
				tr.Release()
			}
			if rng.Intn(2) == 0 {
				opts.SampleEvery = 125 * time.Millisecond
				opts.OnSample = func(tr *Transfer, bytes float64, iv time.Duration) {
					logBoth("sample %s %x %v", []any{tr.Label, math.Float64bits(bytes), iv},
						[]any{tr.Label, math.Float64bits(ref.sampled(tr)), iv})
					if !tr.Completed() && rng.Intn(40) == 0 && cancel(pick()) {
						nested++
					}
				}
			}
			tr := l.Start(int64(5_000+rng.Intn(2_000_000)), opts)
			if prev, ok := lastUp[tr]; ok && prev != l.up {
				moved++
			}
			lastUp[tr] = l.up
			live = append(live, tr)
		}
		for i := 0; i < 60; i++ {
			eng.Schedule(ms(rng.Intn(20000)), func() { start(i) })
		}
		for i := 0; i < 60; i++ {
			op := rng.Intn(3)
			eng.Schedule(ms(rng.Intn(25000)), func() {
				switch op {
				case 0:
					l := links[rng.Intn(len(links))]
					from := eng.Now() + ms(rng.Intn(2000))
					l.AddOutage(from, from+ms(1+rng.Intn(3000)))
				case 1:
					if tr := pick(); tr != nil && tr.link.Suspend(tr) {
						logBoth("suspend %s", []any{tr.Label}, []any{tr.Label})
						eng.After(ms(rng.Intn(2000)), func() { tr.link.Resume(tr) })
					}
				case 2:
					if tr := pick(); tr != nil {
						cancel(tr)
					}
				}
			})
		}
		if err := eng.Run(5_000_000); err != nil {
			t.Fatalf("seed %d run %d: %v", seed, run, err)
		}
	}
	return got, want, moved, nested
}

// TestFlatSolverMatchesEagerWalk is the differential test of the flat
// solver state: on seeded random trees, every sample's bytes, every
// completion instant and Done at every cancel equal what the eager walk
// over legs, members and transfers gives, bit for bit, and so does every
// in-flight transfer's Done after every advance.
func TestFlatSolverMatchesEagerWalk(t *testing.T) {
	moved, nested := 0, 0
	for seed := int64(1); seed <= 12; seed++ {
		got, want, m, n := runIntegratorScenario(t, seed)
		moved, nested = moved+m, nested+n
		if t.Failed() {
			t.Fatalf("seed %d: the solver diverged from the eager walk", seed)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d log lines, the reference %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d line %d:\nsolver: %s\neager:  %s", seed, i, got[i], want[i])
			}
		}
		all := strings.Join(got, "\n")
		for _, what := range []string{" sample ", " done ", " cancel ", " suspend "} {
			if !strings.Contains(all, what) {
				t.Fatalf("seed %d: the scenario logged no%s", seed, what)
			}
		}
		t.Logf("seed %d: %d lines, %d samples, %d completions, %d cancels, %d suspends", seed, len(got),
			strings.Count(all, " sample "), strings.Count(all, " done "), strings.Count(all, " cancel "), strings.Count(all, " suspend "))
	}
	t.Logf("%d transfers moved between uplinks, %d cancels from callbacks", moved, nested)
	if moved == 0 || nested == 0 {
		t.Fatalf("%d transfers moved between uplinks, %d cancels came from callbacks; want some of each", moved, nested)
	}
}

// runCacheScenario drives a seeded random uplink tree — step profiles on
// the uplink and every leaf, mixed weights and sizes, δ-samplers on half
// the transfers, and outages, suspends, resumes and cancels mid-run — and
// returns a log of every observable: samples, completions and the final
// state of each transfer, with float values as exact bits. With force set
// the cache is invalidated before every event, so each event recomputes
// the allocation; otherwise every event is followed by checkCache. A
// non-nil rec is attached to the uplink and to leaf 0 for the whole run,
// and to leaf 1 from 5 s to 15 s; recording observes and changes nothing.
// Every recompute of the allocation is checked against allocReference.
func runCacheScenario(t *testing.T, seed int64, force bool, rec *timeline.Recorder) (log []string, checked int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	eng := NewEngine()
	up := NewUplink(eng, randomSteps(rng, 2000, 20000))
	up.filled = func(at time.Duration) { checkFill(t, up, at) }
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
	if rec != nil {
		up.SetRecorder(rec, "uplink")
		leaves[0].SetRecorder(rec, "link")
		eng.Schedule(5*time.Second, func() { leaves[1].SetRecorder(rec, "link1") })
		eng.Schedule(15*time.Second, func() { leaves[1].SetRecorder(nil, "") })
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
		cached, checked := runCacheScenario(t, seed, false, nil)
		forced, _ := runCacheScenario(t, seed, true, nil)
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

// TestUplinkScenarioGolden pins the uplink tree bit for bit: the sha256 of
// every seeded scenario's log, and of the LinkRate events a recorded run
// emits, must match testdata/uplink_scenario.golden. The recorded run must
// also log exactly what the unrecorded one does. Regenerate with
// `go test ./internal/netsim -run TestUplinkScenarioGolden -update` only
// for an intended change of the uplink's output.
func TestUplinkScenarioGolden(t *testing.T) {
	var got strings.Builder
	for seed := int64(1); seed <= 25; seed++ {
		plain, _ := runCacheScenario(t, seed, false, nil)
		rec := timeline.New(0, "uplink")
		recorded, _ := runCacheScenario(t, seed, false, rec)
		if strings.Join(plain, "\n") != strings.Join(recorded, "\n") {
			t.Fatalf("seed %d: attaching recorders changed the scenario log", seed)
		}
		var rates []string
		for _, ev := range rec.Events() {
			if ev.Kind != timeline.LinkRate {
				t.Fatalf("seed %d: unexpected %v event from a link", seed, ev.Kind)
			}
			rates = append(rates, fmt.Sprintf("%v %s %x", ev.At, ev.Type, math.Float64bits(ev.Rate)))
		}
		fmt.Fprintf(&got, "log %d %x\n", seed, sha256.Sum256([]byte(strings.Join(plain, "\n"))))
		fmt.Fprintf(&got, "rates %d %d %x\n", seed, len(rates), sha256.Sum256([]byte(strings.Join(rates, "\n"))))
	}
	path := filepath.Join("testdata", "uplink_scenario.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("uplink scenario hashes differ from %s:\ngot:\n%swant:\n%s", path, got.String(), want)
	}
}

// TestUplinkFillKeepsTransferOrder pins the two sums the leg fill must
// take in transfer order, on a tree whose weights round differently when
// summed per leg. Leaf a saturates first, and the uplink's remaining
// capacity must drop by a's two rates one at a time, not by their sum.
// The uplink saturates in the second round, over legs b and c, and its
// weight must be 0.3+0.2+0.1, not 0.3+(0.2+0.1). The rates must equal
// allocReference's bit for bit at every fill.
func TestUplinkFillKeepsTransferOrder(t *testing.T) {
	w := []float64{0.3, 0.2, 0.1}
	//lint:ignore floateq the tree is chosen for the two roundings to differ
	if (w[0]+w[1])+w[2] == w[0]+(w[1]+w[2]) {
		t.Fatal("the weights no longer round differently per leg")
	}
	eng := NewEngine()
	up := NewUplink(eng, trace.Fixed(media.Kbps(5_000)))
	for _, leaf := range []struct {
		kbps    float64
		weights []float64
	}{
		{1_000, []float64{0.1, 0.2}},
		{100_000, []float64{0.3}},
		{100_000, []float64{0.2, 0.1}},
	} {
		l := up.NewLeaf(trace.Fixed(media.Kbps(leaf.kbps)))
		for _, w := range leaf.weights {
			l.Start(1<<40, StartOptions{Weight: w})
		}
	}
	fills := 0
	up.filled = func(at time.Duration) {
		checkFill(t, up, at)
		fills++
	}
	eng.RunUntil(time.Millisecond)
	if fills == 0 || up.activeTotal() != 5 {
		t.Fatalf("%d fills over %d transfers; want at least one over 5", fills, up.activeTotal())
	}
}
