package netsim

import "time"

// eventQueue is the engine's pending-event set. Every implementation must
// yield events in exactly (at, seq) order — at ascending, seq breaking ties
// in scheduling order — so the engine's event ordering (and therefore every
// simulation output) is independent of the queue chosen. calendarQueue is
// the implementation; a binary heap, kept in heapqueue_test.go as the
// reference ordering oracle, proves it byte-identical on randomized
// schedule/cancel workloads (TestCalendarMatchesHeapOrder).
type eventQueue interface {
	push(*Event)
	// peek returns the minimum-(at, seq) event without removing it, or nil
	// when the queue is empty.
	peek() *Event
	// pop removes and returns the minimum-(at, seq) event, or nil when the
	// queue is empty. The popped event's idx is set to -1.
	pop() *Event
	// remove deletes a pending event (idx >= 0) and sets its idx to -1.
	remove(*Event)
	len() int
}

// calendarQueue is a calendar (bucket) priority queue (Brown 1988): events
// hash into nbuckets time buckets of fixed width by (at / width) % nbuckets,
// and the queue scans forward from the bucket holding the current window,
// taking the (at, seq) minimum among events inside that window. The queue
// maintains the invariant that no pending event precedes the cursor's
// window: peek only advances the cursor to the window of the global minimum,
// and push rewinds it when a new event lands earlier (possible after a
// peek-without-pop, e.g. RunUntil probing a far-future event). Because
// equal-at events always share a bucket, the within-bucket (at, seq) scan
// reproduces the heap's global tie-break exactly.
//
// Push, pop, and remove are O(1) amortized when the bucket width tracks the
// mean event spacing; resize() re-derives the width from the live event span
// whenever the count crosses the grow/shrink thresholds. A full cycle of
// empty windows (a sparse queue whose next event is far away) falls back to
// a direct O(n) minimum search that also re-anchors the cursor.
type calendarQueue struct {
	buckets [][]*Event
	width   time.Duration
	// cur is the bucket whose window [curTop-width, curTop) the cursor is
	// scanning; floor is the last popped time, the lower bound on every
	// pending event.
	cur    int
	curTop time.Duration
	floor  time.Duration
	count  int
	// peeked caches the last peek so that a peek-then-pop pair (the Step
	// fast path) scans buckets once, not twice. Any mutation clears it.
	peeked *Event
	// spare recycles bucket slices dropped by resize so that steady-state
	// operation allocates nothing (the engine's freelist guarantee).
	spare [][]*Event
}

const (
	calMinBuckets = 8
	calInitWidth  = time.Millisecond
	calMaxBuckets = 1 << 20
)

func newCalendarQueue() *calendarQueue {
	q := &calendarQueue{width: calInitWidth}
	q.buckets = make([][]*Event, calMinBuckets)
	q.curTop = q.width
	return q
}

func (q *calendarQueue) len() int { return q.count }

func (q *calendarQueue) bucketFor(at time.Duration) int {
	return int((at / q.width) % time.Duration(len(q.buckets)))
}

func (q *calendarQueue) push(ev *Event) {
	q.peeked = nil
	// peek advances the cursor to the window of the minimum it found, even
	// when nothing is popped (RunUntil probes the queue this way). The engine
	// may then legally schedule an event earlier than that window — RunUntil
	// moves the clock forward without moving floor — so a push that precedes
	// the current window must rewind the cursor, or the event sits behind it
	// and fires a full calendar cycle late, after later-timestamped events.
	if ev.at < q.curTop-q.width {
		q.cur = q.bucketFor(ev.at)
		q.curTop = (ev.at/q.width + 1) * q.width
	}
	b := q.bucketFor(ev.at)
	ev.bucket = b
	ev.idx = len(q.buckets[b])
	q.buckets[b] = append(q.buckets[b], ev)
	q.count++
	if n := len(q.buckets); q.count > 2*n && n < calMaxBuckets {
		q.resize(2 * n)
	}
}

func (q *calendarQueue) remove(ev *Event) {
	q.peeked = nil
	b := q.buckets[ev.bucket]
	last := len(b) - 1
	moved := b[last]
	b[ev.idx] = moved
	moved.idx = ev.idx
	b[last] = nil
	q.buckets[ev.bucket] = b[:last]
	ev.idx = -1
	q.count--
	if n := len(q.buckets); n > calMinBuckets && q.count < n/2 {
		q.resize(n / 2)
	}
}

func (q *calendarQueue) peek() *Event {
	if q.count == 0 {
		return nil
	}
	if q.peeked != nil {
		return q.peeked
	}
	cur, top := q.cur, q.curTop
	for range q.buckets {
		var best *Event
		for _, ev := range q.buckets[cur] {
			if ev.at < top && (best == nil || eventLess(ev, best)) {
				best = ev
			}
		}
		if best != nil {
			q.cur, q.curTop = cur, top
			q.peeked = best
			return best
		}
		cur++
		if cur == len(q.buckets) {
			cur = 0
		}
		top += q.width
	}
	// A full cycle of empty windows: the next event is over a calendar year
	// away. Find it directly and re-anchor the cursor on its window.
	var best *Event
	for _, b := range q.buckets {
		for _, ev := range b {
			if best == nil || eventLess(ev, best) {
				best = ev
			}
		}
	}
	q.cur = best.bucket
	q.curTop = (best.at/q.width + 1) * q.width
	q.peeked = best
	return best
}

func (q *calendarQueue) pop() *Event {
	ev := q.peek()
	if ev == nil {
		return nil
	}
	q.floor = ev.at
	q.remove(ev)
	return ev
}

// resize rebuilds the calendar with nb buckets and a width re-derived from
// the live event span (roughly three mean gaps per bucket, the classic
// heuristic that keeps a handful of events per scanned window).
func (q *calendarQueue) resize(nb int) {
	var lo, hi time.Duration
	first := true
	for _, b := range q.buckets {
		for _, ev := range b {
			if first {
				lo, hi = ev.at, ev.at
				first = false
				continue
			}
			if ev.at < lo {
				lo = ev.at
			}
			if ev.at > hi {
				hi = ev.at
			}
		}
	}
	if span := hi - lo; span > 0 && q.count > 1 {
		w := span * 3 / time.Duration(q.count)
		if w < 1 {
			w = 1
		}
		q.width = w
	}
	old := q.buckets
	if cap(q.spare) >= nb {
		q.buckets = q.spare[:nb]
		q.spare = nil
	} else {
		q.buckets = make([][]*Event, nb)
	}
	for i, b := range old {
		for _, ev := range b {
			nbk := q.bucketFor(ev.at)
			ev.bucket = nbk
			ev.idx = len(q.buckets[nbk])
			q.buckets[nbk] = append(q.buckets[nbk], ev)
		}
		old[i] = b[:0]
	}
	if cap(old) > cap(q.spare) {
		q.spare = old[:0]
	}
	q.cur = q.bucketFor(q.floor)
	q.curTop = (q.floor/q.width + 1) * q.width
}

func eventLess(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}
