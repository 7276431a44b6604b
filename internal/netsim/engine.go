// Package netsim is a discrete-event network simulator with virtual time.
//
// It models the paper's testbed: an HTTP origin reached through a single
// tc-shaped bottleneck link. The link has a piecewise-constant capacity
// profile (trace.Profile) and serves any number of concurrent transfers,
// splitting capacity equally among active flows (the steady-state behaviour
// of competing TCP flows sharing one bottleneck). Transfers progress as a
// fluid; events fire at transfer activations, completions, profile
// breakpoints, and optional fixed-interval progress samples (used to model
// Shaka's 0.125 s throughput sampler).
package netsim

import (
	"fmt"
	"time"
)

// Engine is a virtual-time discrete-event scheduler. The zero value is not
// usable; create one with NewEngine.
type Engine struct {
	now     time.Duration
	q       eventQueue
	seq     uint64
	stopped bool
	// free recycles fired and cancelled events: a long session schedules
	// hundreds of thousands of events but holds only a handful pending at
	// once, so the freelist caps Event allocations at the pending
	// high-water mark.
	free []*Event
	// transfers recycles released transfers (see Transfer.Release) for
	// every link the engine drives: a transfer one link let go of serves
	// the next Start on any of them, so an engine that outlives its links
	// (see Reset) carries its transfers from one simulation to the next.
	transfers []*Transfer
	// events lists every Event the engine ever made, at index Event.ref.
	// Heap and lane entries name events by that index rather than by
	// pointer, so they hold no pointers.
	events []*Event
	// lanes are the fixed-delay FIFOs (see Lane) in creation order. The
	// first len(laneBuf) are kept inside the engine, so a session's few
	// cadences cost no allocation beyond their rings.
	lanes   []*Lane
	laneBuf [4]Lane
	laneRef [4]*Lane

	// fired counts the events the engine has fired since it was made, in
	// the heap and in the lanes (see Fired).
	fired uint64
}

// NewEngine returns an engine with the clock at zero. Events with variable
// delays are held in a 4-ary heap (see queue.go), fixed-cadence ones in
// lanes; newEngineWithQueue is the test seam that swaps in the reference
// binary heap (heapqueue_test.go) to prove the orderings identical.
func NewEngine() *Engine {
	e := &Engine{}
	e.q = &quadHeap{events: &e.events}
	return e
}

func newEngineWithQueue(q eventQueue) *Engine { return &Engine{q: q} }

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Event is one pooled slot of the engine's queue. Callers never hold an
// Event directly: Schedule hands out a Handle naming one occupancy of it.
type Event struct {
	at   time.Duration
	seq  uint64 // unique per Schedule; doubles as the occupancy's generation
	fn   func()
	idx  int   // slot in the heap (0 in a lane); -1 once fired or cancelled
	ref  int32 // index in the engine's event table
	lane *Lane // the lane holding the event; nil in the heap
}

// Handle names one scheduled callback. The engine recycles an Event as
// soon as it fires or is cancelled, so a handle carries the occupancy's
// sequence number: once the event has fired, been cancelled or been
// reused, the handle no longer matches and every operation on it is a
// no-op. The zero Handle names nothing.
type Handle struct {
	ev  *Event
	seq uint64
}

// Pending reports whether the handle's callback is still scheduled.
func (h Handle) Pending() bool { return h.ev != nil && h.ev.seq == h.seq && h.ev.idx >= 0 }

// Schedule runs fn at virtual time at. Scheduling in the past panics: it
// indicates a simulator bug, not a recoverable condition.
//
// The returned Handle cancels the callback until it fires. Holders may
// keep it as long as they like: a stale handle (fired, cancelled, or its
// Event reused by a later Schedule) never reaches another callback.
func (e *Engine) Schedule(at time.Duration, fn func()) Handle {
	if at < e.now {
		panic(fmt.Sprintf("netsim: scheduling at %v before now %v", at, e.now))
	}
	ev := e.event(at, fn)
	ev.lane = nil
	e.q.push(ev)
	return Handle{ev: ev, seq: ev.seq}
}

// event takes the next sequence number and fills an Event for it, from
// the freelist when one is free.
func (e *Engine) event(at time.Duration, fn func()) *Event {
	e.seq++
	if k := len(e.free); k > 0 {
		ev := e.free[k-1]
		e.free = e.free[:k-1]
		ev.at, ev.seq, ev.fn = at, e.seq, fn
		return ev
	}
	ev := &Event{at: at, seq: e.seq, fn: fn, ref: int32(len(e.events))}
	e.events = append(e.events, ev)
	return ev
}

// After runs fn d after the current virtual time.
func (e *Engine) After(d time.Duration, fn func()) Handle {
	return e.Schedule(e.now+d, fn)
}

// Lane returns the engine's lane for delay d, creating it on first use.
// Lanes carry the simulation's fixed cadences (sample, logging and
// controller ticks, request timeouts) outside the heap.
func (e *Engine) Lane(d time.Duration) *Lane {
	if d < 0 {
		panic(fmt.Sprintf("netsim: lane with negative delay %v", d))
	}
	for _, l := range e.lanes {
		if l.d == d {
			return l
		}
	}
	if e.lanes == nil {
		e.lanes = e.laneRef[:0]
	}
	var l *Lane
	if n := len(e.lanes); n < len(e.laneBuf) {
		l = &e.laneBuf[n]
	} else {
		l = new(Lane)
	}
	*l = Lane{e: e, d: d}
	e.lanes = append(e.lanes, l)
	return l
}

// Lane is a FIFO of events that all fire a fixed delay after they were
// added. The clock never runs backwards and sequence numbers only grow,
// so entries arrive in (at, seq) order: a ring holds them, and the engine
// merges the lane heads with the heap's top. A lane event is
// indistinguishable from the same callback scheduled with After.
type Lane struct {
	e *Engine
	d time.Duration
	// ring holds the entries from head on, n of them, dead ones (cancelled
	// before reaching the head) included; its length is a power of two.
	ring []heapEntry
	head int
	n    int
	dead int
}

// Add runs fn the lane's delay after the current virtual time; it orders
// exactly as After(d, fn) would.
func (l *Lane) Add(fn func()) Handle {
	e := l.e
	ev := e.event(e.now+l.d, fn)
	ev.idx, ev.lane = 0, l
	if l.n == len(l.ring) {
		l.grow()
	}
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = heapEntry{at: ev.at, seq: ev.seq, ev: ev.ref}
	l.n++
	return Handle{ev: ev, seq: ev.seq}
}

// grow doubles the ring, unrolling it so the head lands at slot 0.
func (l *Lane) grow() {
	ring := make([]heapEntry, max(8, 2*len(l.ring)))
	for i := 0; i < l.n; i++ {
		ring[i] = l.ring[(l.head+i)&(len(l.ring)-1)]
	}
	l.ring, l.head = ring, 0
}

// front returns the lane's earliest live entry, first dropping the dead
// entries ahead of it. An entry is dead once its event no longer holds
// the entry's generation: it was cancelled, and possibly reused since.
func (l *Lane) front() (heapEntry, bool) {
	for l.n > 0 {
		h := l.ring[l.head]
		if l.dead == 0 {
			return h, true
		}
		if ev := l.e.events[h.ev]; ev.seq == h.seq && ev.idx >= 0 {
			return h, true
		}
		l.head = (l.head + 1) & (len(l.ring) - 1)
		l.n--
		l.dead--
	}
	return heapEntry{}, false
}

// pop removes the head entry, which front has found live, and returns its
// event.
func (l *Lane) pop() *Event {
	h := l.ring[l.head]
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	ev := l.e.events[h.ev]
	ev.idx = -1
	return ev
}

// Cancel removes a pending callback and recycles its Event at once.
// Cancelling through a handle that has fired, was cancelled already, or
// whose Event now holds another callback is a no-op. A lane event's entry
// stays in its ring, dead, until it reaches the head.
func (e *Engine) Cancel(h Handle) {
	if !h.Pending() {
		return
	}
	if ev := h.ev; ev.lane != nil {
		ev.idx = -1
		ev.lane.dead++
	} else {
		e.q.remove(ev)
	}
	e.recycle(h.ev)
}

// recycle returns an event that left the queue to the freelist, releasing
// its closure for the GC while it sits pooled.
func (e *Engine) recycle(ev *Event) {
	ev.fn = nil
	e.free = append(e.free, ev)
}

// next finds the earliest pending event in (at, seq) order: the head of
// the returned lane, or the heap's top when lane is nil. ok is false when
// nothing is pending.
func (e *Engine) next() (lane *Lane, at time.Duration, ok bool) {
	var key heapEntry
	if top := e.q.peek(); top != nil {
		key, ok = heapEntry{at: top.at, seq: top.seq}, true
	}
	for _, l := range e.lanes {
		if h, live := l.front(); live && (!ok || heapLess(h, key) == 1) {
			lane, key, ok = l, h, true
		}
	}
	return lane, key.at, ok
}

// fire pops the event next found (the head of lane, or the heap's top for
// a nil lane) and runs it. The event is recycled before its callback
// runs: the popped occupancy's handles are already stale, so a Cancel
// from inside the callback is a no-op even if the callback's own Schedule
// reuses the Event.
func (e *Engine) fire(lane *Lane) {
	var ev *Event
	if lane == nil {
		ev = e.q.pop()
	} else {
		ev = lane.pop()
	}
	e.now = ev.at
	e.fired++
	fn := ev.fn
	e.recycle(ev)
	fn()
}

// Fired returns the number of events the engine has fired since it was
// made, across every Reset: a deterministic measure of its work.
func (e *Engine) Fired() uint64 { return e.fired }

// Step fires the next event. It reports false when no events remain or the
// engine is stopped.
func (e *Engine) Step() bool {
	if e.stopped {
		return false
	}
	lane, _, ok := e.next()
	if !ok {
		return false
	}
	e.fire(lane)
	return true
}

// Run fires events until none remain, Stop is called, or the event count
// budget is exhausted (a safeguard against runaway simulations).
func (e *Engine) Run(maxEvents int) error {
	for i := 0; i < maxEvents; i++ {
		if !e.Step() {
			return nil
		}
	}
	return fmt.Errorf("netsim: event budget %d exhausted at t=%v", maxEvents, e.now)
}

// RunUntil fires events with time ≤ t, then sets the clock to t.
func (e *Engine) RunUntil(t time.Duration) {
	for !e.stopped {
		lane, at, ok := e.next()
		if !ok || at > t {
			break
		}
		e.fire(lane)
	}
	if t > e.now {
		e.now = t
	}
}

// Reset readies a drained engine for another simulation: the clock goes
// back to zero and a Stop is forgotten, while the event table, the event
// and transfer freelists and the lanes are kept, so the next simulation
// starts warm. Resetting with an event pending panics: the event belongs
// to the simulation that scheduled it.
//
// The sequence counter is not rewound. It is each occupancy's generation
// (see Handle), so restarting it would let a handle kept from the last
// simulation match an Event reused by the next; only the relative order of
// sequence numbers breaks ties, so the next simulation fires its events in
// the order a new engine would.
func (e *Engine) Reset() {
	if n := e.Pending(); n > 0 {
		panic(fmt.Sprintf("netsim: Reset with %d events pending at %v", n, e.now))
	}
	e.now, e.stopped = 0, false
	// Entries left in a ring are dead: their events were cancelled and
	// recycled already.
	for _, l := range e.lanes {
		l.head, l.n, l.dead = 0, 0, 0
	}
}

// Stop halts Run/RunUntil after the current event returns.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }

// Pending returns the number of scheduled events, in the heap and in the
// lanes.
func (e *Engine) Pending() int {
	n := e.q.len()
	for _, l := range e.lanes {
		n += l.n - l.dead
	}
	return n
}
