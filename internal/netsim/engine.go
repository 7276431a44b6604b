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
}

// NewEngine returns an engine with the clock at zero. Events are held in a
// 4-ary heap (see queue.go); newEngineWithQueue is the test seam that swaps
// in the reference binary heap (heapqueue_test.go) to prove the orderings
// identical.
func NewEngine() *Engine { return newEngineWithQueue(&quadHeap{}) }

func newEngineWithQueue(q eventQueue) *Engine { return &Engine{q: q} }

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Event is one pooled slot of the engine's queue. Callers never hold an
// Event directly: Schedule hands out a Handle naming one occupancy of it.
type Event struct {
	at  time.Duration
	seq uint64 // unique per Schedule; doubles as the occupancy's generation
	fn  func()
	idx int   // slot in the queue; -1 once fired or cancelled
	ref int32 // the queue's own name for the event; 0 until first pushed
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
	e.seq++
	var ev *Event
	if k := len(e.free); k > 0 {
		ev = e.free[k-1]
		e.free = e.free[:k-1]
		ev.at, ev.seq, ev.fn = at, e.seq, fn
	} else {
		ev = &Event{at: at, seq: e.seq, fn: fn}
	}
	e.q.push(ev)
	return Handle{ev: ev, seq: ev.seq}
}

// After runs fn d after the current virtual time.
func (e *Engine) After(d time.Duration, fn func()) Handle {
	return e.Schedule(e.now+d, fn)
}

// Cancel removes a pending callback and recycles its Event at once.
// Cancelling through a handle that has fired, was cancelled already, or
// whose Event now holds another callback is a no-op.
func (e *Engine) Cancel(h Handle) {
	if !h.Pending() {
		return
	}
	e.q.remove(h.ev)
	e.recycle(h.ev)
}

// recycle returns an event that left the queue to the freelist, releasing
// its closure for the GC while it sits pooled.
func (e *Engine) recycle(ev *Event) {
	ev.fn = nil
	e.free = append(e.free, ev)
}

// Step fires the next event. It reports false when no events remain or the
// engine is stopped. The event is recycled before its callback runs: the
// popped occupancy's handles are already stale, so a Cancel from inside
// the callback is a no-op even if the callback's own Schedule reuses the
// Event.
func (e *Engine) Step() bool {
	if e.stopped || e.q.len() == 0 {
		return false
	}
	ev := e.q.pop()
	e.now = ev.at
	fn := ev.fn
	e.recycle(ev)
	fn()
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
	for !e.stopped && e.q.len() > 0 && e.q.peek().at <= t {
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

// Stop halts Run/RunUntil after the current event returns.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }

// Pending returns the number of scheduled events.
func (e *Engine) Pending() int { return e.q.len() }
