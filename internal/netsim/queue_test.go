package netsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// queueOp is one step of a randomized workload: schedule, cancel, step,
// run-until, or lane add.
type queueOp struct {
	kind  int // 0 schedule, 1 cancel, 2 step, 3 run-until, 4 lane add
	delay time.Duration
	pick  int  // which live event to cancel
	far   bool // cancel only among events scheduled farDelay or more ahead
	lane  bool // cancel only among lane events
}

// farDelay separates the far events of fleetDelay's mix from the near ones.
const farDelay = 10 * time.Second

// laneDelays are the lane delays the workloads add through: a zero delay,
// the δ-sample tick and the logging tick.
var laneDelays = [...]time.Duration{0, 125 * time.Millisecond, 500 * time.Millisecond}

// laneAdd draws a lane add.
func laneAdd(rng *rand.Rand) queueOp {
	return queueOp{kind: 4, delay: laneDelays[rng.Intn(len(laneDelays))]}
}

// fleetDelay draws a scheduling delay from the pending mix measured in a
// 16-session fleet cell: about 65% of pending events are due within 1 s
// (sample ticks, group wakes, activations), 5% within 1–10 s, and 30% are
// 10–100 s away, nearly all of them the players' buffer-underrun timers.
// Delays are quantized to the millisecond so equal timestamps still occur.
func fleetDelay(rng *rand.Rand) time.Duration {
	switch r := rng.Intn(100); {
	case r < 65:
		if rng.Intn(5) == 0 {
			return 0
		}
		return ms(rng.Intn(1000))
	case r < 70:
		return ms(1000 + rng.Intn(9000))
	default:
		return farDelay + ms(rng.Intn(90_000))
	}
}

// randomOps builds a workload with heavy same-timestamp collisions (delay 0
// and small quantized delays) so the seq tie-break is exercised constantly.
// RunUntil ops (often targeting a time before the next pending event, so the
// probe peeks without popping) interleave with later schedules to cover the
// persisted-peek cursor states. Lane adds land on the same instants as
// heap schedules (both draw multiples of 25 ms often), and cancels hit
// both.
func randomOps(rng *rand.Rand, n int) []queueOp {
	ops := make([]queueOp, n)
	for i := range ops {
		switch r := rng.Intn(12); {
		case r >= 10:
			ops[i] = laneAdd(rng)
		case r < 5:
			d := time.Duration(rng.Intn(50)) * time.Millisecond
			if rng.Intn(4) == 0 {
				d = 0
			}
			ops[i] = queueOp{kind: 0, delay: d}
		case r < 7:
			ops[i] = queueOp{kind: 1, pick: rng.Int()}
		case r < 8:
			// Small advances rarely reach the next event (delays above are up
			// to 50ms), so most of these peek a far event and leave it pending.
			ops[i] = queueOp{kind: 3, delay: time.Duration(rng.Intn(8)) * time.Millisecond}
		default:
			ops[i] = queueOp{kind: 2}
		}
	}
	return ops
}

// fleetOps builds a workload shaped like a fleet cell's traffic: it fills
// the queue to about 50 pending events with fleetDelay's mix and holds it
// there, interleaving steps, short RunUntil probes, and cancels of far
// events (a chunk arrival re-arming its session's underrun timer) that
// keep the far share near 30%. A third of the near events are lane adds
// (sample and logging ticks), and some cancels hit lane events (a
// completed request's timeout). The near/far counts are the generator's
// estimate; a RunUntil probe pops about half a near event on average.
func fleetOps(rng *rand.Rand, n int) []queueOp {
	ops := make([]queueOp, n)
	near, far := 0, 0
	for i := range ops {
		switch {
		case rng.Intn(20) == 0:
			ops[i] = queueOp{kind: 3, delay: ms(rng.Intn(20))}
			if near > 0 && rng.Intn(2) == 0 {
				near--
			}
		case near > 0 && rng.Intn(25) == 0:
			ops[i] = queueOp{kind: 1, pick: rng.Int(), lane: true}
			near--
		case near+far < 50:
			d := fleetDelay(rng)
			ops[i] = queueOp{kind: 0, delay: d}
			if d >= farDelay {
				far++
			} else {
				near++
				if rng.Intn(3) == 0 {
					ops[i] = laneAdd(rng)
				}
			}
		case far > 15:
			ops[i] = queueOp{kind: 1, pick: rng.Int(), far: true}
			far--
		default:
			ops[i] = queueOp{kind: 2}
			if near > 0 {
				near--
			} else {
				far--
			}
		}
	}
	return ops
}

// replay runs ops against an engine and returns the (time, tag) firing
// sequence. Tags are assigned in schedule order, so identical sequences mean
// identical event ordering, including tie-breaks. With lanes set, lane adds
// go through the engine's lanes; otherwise they are scheduled with After,
// as the reference engine does.
func replay(e *Engine, ops []queueOp, lanes bool) []string {
	var fired []string
	live := map[int]Handle{}
	far := map[int]bool{}
	onLane := map[int]bool{}
	tag := 0
	for _, op := range ops {
		switch op.kind {
		case 0, 4:
			id := tag
			tag++
			fn := func() {
				delete(live, id)
				fired = append(fired, fmt.Sprintf("%d@%v", id, e.Now()))
			}
			if op.kind == 4 && lanes {
				live[id] = e.Lane(op.delay).Add(fn)
			} else {
				live[id] = e.After(op.delay, fn)
			}
			far[id] = op.delay >= farDelay
			onLane[id] = op.kind == 4
		case 1:
			// Deterministic pick: lowest eligible live id >= pick mod
			// (tag+1), else the lowest eligible one.
			want := op.pick % (tag + 1)
			best, lowest := -1, -1
			for id := range live {
				if op.far && !far[id] || op.lane && !onLane[id] {
					continue
				}
				if lowest == -1 || id < lowest {
					lowest = id
				}
				if id >= want && (best == -1 || id < best) {
					best = id
				}
			}
			if best == -1 {
				best = lowest
			}
			if best == -1 {
				continue
			}
			e.Cancel(live[best])
			delete(live, best)
		case 2:
			e.Step()
		case 3:
			e.RunUntil(e.Now() + op.delay)
		}
	}
	for e.Step() {
	}
	return fired
}

// TestQueueMatchesHeapOrder is the equivalence proof for the engine's
// queue and lanes: on randomized schedule/lane-add/cancel/step workloads —
// one with dense timestamp collisions, one with a fleet cell's pending
// mix — the engine fires exactly the same events at exactly the same times
// in exactly the same order as the reference binary heap given every
// event through After.
func TestQueueMatchesHeapOrder(t *testing.T) {
	for _, mix := range []struct {
		name string
		ops  func(*rand.Rand, int) []queueOp
	}{{"collisions", randomOps}, {"fleet", fleetOps}} {
		for seed := int64(0); seed < 20; seed++ {
			ops := mix.ops(rand.New(rand.NewSource(seed)), 2000)
			want := replay(newEngineWithQueue(&heapQueue{}), ops, false)
			got := replay(NewEngine(), ops, true)
			if len(want) != len(got) {
				t.Fatalf("%s seed %d: oracle fired %d events, engine %d", mix.name, seed, len(want), len(got))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("%s seed %d: firing %d differs: oracle %s engine %s", mix.name, seed, i, want[i], got[i])
				}
			}
		}
	}
}

// TestQueueSparseAndBurst covers a long empty gap and a burst of equal
// timestamps, which must fire purely in scheduling order.
func TestQueueSparseAndBurst(t *testing.T) {
	e := NewEngine()
	var fired []int
	// Burst: 100 events at the same instant.
	for i := 0; i < 100; i++ {
		e.Schedule(5*time.Millisecond, func() { fired = append(fired, i) })
	}
	// Sparse: one event a simulated hour away.
	e.Schedule(time.Hour, func() { fired = append(fired, 100) })
	for e.Step() {
	}
	if len(fired) != 101 {
		t.Fatalf("fired %d of 101", len(fired))
	}
	for i, got := range fired {
		if got != i {
			t.Fatalf("firing %d: got event %d, want %d (seq tie-break broken)", i, got, i)
		}
	}
	if e.Now() != time.Hour {
		t.Fatalf("clock at %v, want 1h", e.Now())
	}
}

// TestQueueResizeKeepsOrder grows the queue to 5000 events, several
// heap levels deep, then drains and checks global (at, seq) order.
func TestQueueResizeKeepsOrder(t *testing.T) {
	e := NewEngine()
	rng := rand.New(rand.NewSource(7))
	type key struct {
		at  time.Duration
		ord int
	}
	var fired []key
	for i := 0; i < 5000; i++ {
		at := time.Duration(rng.Intn(10_000)) * time.Microsecond
		e.Schedule(at, func() { fired = append(fired, key{e.Now(), i}) })
	}
	for e.Step() {
	}
	if len(fired) != 5000 {
		t.Fatalf("fired %d of 5000", len(fired))
	}
	for i := 1; i < len(fired); i++ {
		a, b := fired[i-1], fired[i]
		if b.at < a.at || (b.at == a.at && b.ord < a.ord) {
			t.Fatalf("order violated at %d: %v then %v", i, a, b)
		}
	}
}

// TestQueueRunUntilPeek pins RunUntil's peek path: events at exactly t
// fire, events after t stay pending.
func TestQueueRunUntilPeek(t *testing.T) {
	e := NewEngine()
	var fired []int
	e.Schedule(10*time.Millisecond, func() { fired = append(fired, 0) })
	e.Schedule(20*time.Millisecond, func() { fired = append(fired, 1) })
	e.Schedule(30*time.Millisecond, func() { fired = append(fired, 2) })
	e.RunUntil(20 * time.Millisecond)
	if len(fired) != 2 || e.Pending() != 1 {
		t.Fatalf("RunUntil(20ms): fired %v, pending %d; want [0 1], 1", fired, e.Pending())
	}
	if e.Now() != 20*time.Millisecond {
		t.Fatalf("clock at %v, want 20ms", e.Now())
	}
}

// TestQueueScheduleAfterRunUntilPeek pins a peek without a pop:
// RunUntil's final peek sees a far event and leaves it pending, and a later
// Schedule at an earlier time must still fire first.
func TestQueueScheduleAfterRunUntilPeek(t *testing.T) {
	e := NewEngine()
	var fired []time.Duration
	record := func() { fired = append(fired, e.Now()) }
	e.Schedule(50*time.Millisecond, record)
	e.RunUntil(10 * time.Millisecond) // peeks the 50ms event, advancing the cursor
	e.Schedule(15*time.Millisecond, record)
	for e.Step() {
	}
	want := []time.Duration{15 * time.Millisecond, 50 * time.Millisecond}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v (event behind the peeked cursor fired late)", fired, want)
		}
	}
}

// TestLaneStaleHandleAfterHeapReuse pins the lane entry's generation: a
// cancelled lane event goes straight back to the freelist while its entry
// stays in the ring, a heap Schedule reuses the Event, and a Cancel
// through the old handle must then leave the new occupant alone. The dead
// entry must not fire, and the heap event must fire at its own time.
func TestLaneStaleHandleAfterHeapReuse(t *testing.T) {
	e := NewEngine()
	lane := e.Lane(125 * time.Millisecond)
	var fired []string
	old := lane.Add(func() { fired = append(fired, "old") })
	lane.Add(func() { fired = append(fired, "lane@"+e.Now().String()) })
	e.Cancel(old)
	cur := e.Schedule(200*time.Millisecond, func() { fired = append(fired, "heap@"+e.Now().String()) })
	if cur.ev != old.ev {
		t.Fatal("the cancelled lane event was not recycled by the next Schedule")
	}
	if old.Pending() || !cur.Pending() || e.Pending() != 2 {
		t.Fatalf("old pending %v, new pending %v, engine pending %d; want false, true, 2", old.Pending(), cur.Pending(), e.Pending())
	}
	e.Cancel(old) // stale: names the event's previous occupancy, on the lane
	if !cur.Pending() || e.Pending() != 2 {
		t.Fatalf("a stale lane handle cancelled the heap event that reused its Event (pending %d)", e.Pending())
	}
	if err := e.Run(100); err != nil {
		t.Fatal(err)
	}
	if want := []string{"lane@125ms", "heap@200ms"}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	if e.Pending() != 0 {
		t.Fatalf("pending %d after the run, want 0", e.Pending())
	}
}

// TestLaneRunUntilPeek pins RunUntil's peek at a lane head: a lane event
// after t stays pending while the clock moves to t, a heap event scheduled
// afterwards at an earlier time fires first, and events at exactly t fire
// from both the heap and the lane in scheduling order, past a dead lane
// head.
func TestLaneRunUntilPeek(t *testing.T) {
	e := NewEngine()
	lane := e.Lane(50 * time.Millisecond)
	var fired []string
	record := func(name string) func() {
		return func() { fired = append(fired, fmt.Sprintf("%s@%v", name, e.Now())) }
	}
	lane.Add(record("a"))
	e.RunUntil(10 * time.Millisecond) // peeks the lane head at 50ms
	if len(fired) != 0 || e.Pending() != 1 || e.Now() != 10*time.Millisecond {
		t.Fatalf("RunUntil(10ms): fired %v, pending %d, clock %v; want none, 1, 10ms", fired, e.Pending(), e.Now())
	}
	e.Schedule(15*time.Millisecond, record("b"))
	e.Schedule(60*time.Millisecond, record("c"))
	dead := lane.Add(record("dead")) // due at 60ms, cancelled before it reaches the head
	lane.Add(record("d"))            // due at 60ms, after c in scheduling order
	e.Cancel(dead)
	e.RunUntil(60 * time.Millisecond)
	want := []string{"b@15ms", "a@50ms", "c@60ms", "d@60ms"}
	if !reflect.DeepEqual(fired, want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	if e.Pending() != 0 || e.Now() != 60*time.Millisecond {
		t.Fatalf("pending %d, clock %v; want 0, 60ms", e.Pending(), e.Now())
	}
}

func benchQueue(b *testing.B, mk func() *Engine, pending int) {
	e := mk()
	for i := 0; i < pending; i++ {
		e.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Hold the pending count steady: every step reschedules one event.
		e.After(time.Duration(pending)*time.Millisecond, func() {})
		e.Step()
	}
}

func BenchmarkQueueHeap(b *testing.B) {
	for _, p := range []int{64, 4096} {
		b.Run(fmt.Sprintf("pending-%d", p), func(b *testing.B) {
			benchQueue(b, func() *Engine { return newEngineWithQueue(&heapQueue{}) }, p)
		})
	}
}

func BenchmarkQueueQuadHeap(b *testing.B) {
	for _, p := range []int{64, 4096} {
		b.Run(fmt.Sprintf("pending-%d", p), func(b *testing.B) {
			benchQueue(b, NewEngine, p)
		})
	}
}

// fleetMixEngine returns a warm engine holding 52 self-rearming events in
// fleetDelay's proportions (34 near, 2 mid, 16 far), first scheduled in a
// shuffled order as a cell's sessions interleave them. Each firing re-arms
// its event with the next delay of its own class, so the pending mix stays
// fixed while the clock runs.
func fleetMixEngine() *Engine {
	e := NewEngine()
	rng := rand.New(rand.NewSource(1))
	type class struct{ min, max int } // delay range in ms
	var slots []class
	for _, c := range []struct {
		n int
		class
	}{{34, class{0, 1000}}, {2, class{1000, 10_000}}, {16, class{10_000, 100_000}}} {
		for i := 0; i < c.n; i++ {
			slots = append(slots, c.class)
		}
	}
	rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	for _, c := range slots {
		delays := make([]time.Duration, 64)
		for j := range delays {
			delays[j] = ms(c.min + rng.Intn(c.max-c.min))
		}
		k := 0
		var rearm func()
		rearm = func() {
			k = (k + 1) % len(delays)
			e.After(delays[k], rearm)
		}
		e.After(delays[0], rearm)
	}
	for i := 0; i < 1000; i++ { // warm the freelist
		e.Step()
	}
	return e
}

// BenchmarkEngineFleetMix times one warm event firing — pop, callback,
// re-arm — with a fleet cell's pending mix in the queue.
func BenchmarkEngineFleetMix(b *testing.B) {
	e := fleetMixEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// laneMixEngine returns a warm engine shaped like a fleet cell after its
// fixed cadences moved to lanes: 16 δ-tickers re-arming on the 125 ms
// lane (eight sessions' audio and video transfers), the sessions' eight
// logging ticks on the 500 ms lane, and a heap mix of 18 self-rearming
// variable-delay events (2 near, 2 mid, 14 far) in fleetDelay's classes.
func laneMixEngine() *Engine {
	e := NewEngine()
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct{ n, min, max int }{{2, 0, 1000}, {2, 1000, 10_000}, {14, 10_000, 100_000}} {
		for i := 0; i < c.n; i++ {
			delays := make([]time.Duration, 64)
			for j := range delays {
				delays[j] = ms(c.min + rng.Intn(c.max-c.min))
			}
			k := 0
			var rearm func()
			rearm = func() {
				k = (k + 1) % len(delays)
				e.After(delays[k], rearm)
			}
			e.After(delays[0], rearm)
		}
	}
	for _, c := range []struct {
		n int
		d time.Duration
	}{{16, 125 * time.Millisecond}, {8, 500 * time.Millisecond}} {
		lane := e.Lane(c.d)
		for i := 0; i < c.n; i++ {
			var tick func()
			tick = func() { lane.Add(tick) }
			e.After(ms(rng.Intn(int(c.d/time.Millisecond))), tick) // stagger the phases
		}
	}
	for i := 0; i < 1000; i++ { // warm the freelist and the rings
		e.Step()
	}
	return e
}

// BenchmarkEngineLaneMix times one warm event firing — pick the earliest
// of the heap top and the lane heads, pop, callback, re-arm — with a
// fleet cell's cadences in lanes and its other events in the heap.
func BenchmarkEngineLaneMix(b *testing.B) {
	e := laneMixEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
