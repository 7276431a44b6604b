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
	// free recycles fired events: a long session schedules hundreds of
	// thousands of events but holds only a handful pending at once, so the
	// freelist caps Event allocations at the pending high-water mark.
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

// Event is a scheduled callback; it can be cancelled before it fires.
type Event struct {
	at  time.Duration
	seq uint64
	fn  func()
	idx int // slot in the queue; -1 once fired or cancelled
}

// At returns the time the event is scheduled for.
func (ev *Event) At() time.Duration { return ev.at }

// Schedule runs fn at virtual time at. Scheduling in the past panics: it
// indicates a simulator bug, not a recoverable condition.
//
// The returned *Event is valid for Cancel until it fires. Once its
// callback has run, the Event object may be recycled by a later Schedule,
// so holders must drop their reference no later than the callback itself
// (every in-tree holder nils its field at the top of the callback).
// Cancelling during the event's own callback is still safe: recycling
// happens only after the callback returns.
func (e *Engine) Schedule(at time.Duration, fn func()) *Event {
	if at < e.now {
		panic(fmt.Sprintf("netsim: scheduling at %v before now %v", at, e.now))
	}
	e.seq++
	var ev *Event
	if k := len(e.free); k > 0 {
		ev = e.free[k-1]
		e.free[k-1] = nil
		e.free = e.free[:k-1]
		ev.at, ev.seq, ev.fn = at, e.seq, fn
	} else {
		ev = &Event{at: at, seq: e.seq, fn: fn}
	}
	e.q.push(ev)
	return ev
}

// After runs fn d after the current virtual time.
func (e *Engine) After(d time.Duration, fn func()) *Event {
	return e.Schedule(e.now+d, fn)
}

// Cancel removes a pending event. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.idx < 0 {
		return
	}
	e.q.remove(ev)
}

// Step fires the next event. It reports false when no events remain or the
// engine is stopped.
func (e *Engine) Step() bool {
	if e.stopped || e.q.len() == 0 {
		return false
	}
	ev := e.q.pop()
	e.now = ev.at
	fn := ev.fn
	ev.fn = nil // release the closure for GC while the Event sits pooled
	fn()
	// Recycle only after the callback: a Cancel on this event from within
	// its own callback must still be a no-op, not hit a reused event.
	// Cancelled events are never recycled — stale handles to them may
	// legitimately be double-cancelled later.
	e.free = append(e.free, ev)
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
