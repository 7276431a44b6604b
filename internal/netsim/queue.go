package netsim

import (
	"math/bits"
	"time"
)

// eventQueue is the engine's pending-event set. Every implementation must
// yield events in exactly (at, seq) order — at ascending, seq breaking ties
// in scheduling order — so the engine's event ordering (and therefore every
// simulation output) is independent of the queue chosen. quadHeap is the
// implementation; a binary heap, kept in heapqueue_test.go as the
// reference ordering oracle, proves it byte-identical on randomized
// schedule/cancel workloads (TestQueueMatchesHeapOrder), with the engine's
// lanes merged in.
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

// heapEntry is one quadHeap or Lane slot. The (at, seq) key is copied
// inline so that sifting compares keys without dereferencing the events,
// and the event is named by its index in the engine's event table rather
// than by a pointer: the entries hold no pointers, so moving them costs no
// GC write barriers and the GC never scans the arrays.
type heapEntry struct {
	at  time.Duration
	seq uint64
	ev  int32 // index into Engine.events
}

// quadHeap is a 4-ary min-heap on (at, seq). Keys are unique (seq is), so
// any correct priority queue pops the same total order; four children per
// node halve the depth of a binary heap, and a sift-down's four compares
// read one contiguous run of slots. Each event's idx tracks its slot so
// Cancel removes it in O(log n).
type quadHeap struct {
	h []heapEntry
	// events is the engine's event table; the engine pools its events, so
	// it stays at the high-water mark of live events.
	events *[]*Event
}

func (q *quadHeap) len() int { return len(q.h) }

func (q *quadHeap) peek() *Event {
	if len(q.h) == 0 {
		return nil
	}
	return (*q.events)[q.h[0].ev]
}

func (q *quadHeap) push(ev *Event) {
	q.h = append(q.h, heapEntry{at: ev.at, seq: ev.seq, ev: ev.ref})
	q.up(len(q.h) - 1)
}

func (q *quadHeap) pop() *Event {
	if len(q.h) == 0 {
		return nil
	}
	ev := (*q.events)[q.h[0].ev]
	q.removeAt(0)
	ev.idx = -1
	return ev
}

func (q *quadHeap) remove(ev *Event) {
	q.removeAt(ev.idx)
	ev.idx = -1
}

// removeAt fills slot i with the last entry and restores the heap order
// around it.
func (q *quadHeap) removeAt(i int) {
	last := len(q.h) - 1
	moved := q.h[last]
	q.h = q.h[:last]
	if i == last {
		return
	}
	q.h[i] = moved
	if i > 0 && heapLess(moved, q.h[(i-1)/4]) == 1 {
		q.up(i)
	} else {
		q.down(i)
	}
}

// up moves the entry at slot i toward the root until its parent is
// smaller, updating the idx of every event it passes.
func (q *quadHeap) up(i int) {
	h, events := q.h, *q.events
	x := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if heapLess(x, h[p]) == 0 {
			break
		}
		h[i] = h[p]
		events[h[i].ev].idx = i
		i = p
	}
	h[i] = x
	events[x.ev].idx = i
}

// down moves the entry at slot i toward the leaves until no child is
// smaller, updating the idx of every event it passes. A full set of four
// children is reduced as a branch-free tournament: which child is
// smallest is unpredictable, so branching on it stalls more than it saves.
func (q *quadHeap) down(i int) {
	h, events := q.h, *q.events
	n := len(h)
	x := h[i]
	for {
		c := 4*i + 1
		var m int
		switch {
		case c+3 < n:
			m = c + heapLess(h[c+1], h[c])
			m2 := c + 2 + heapLess(h[c+3], h[c+2])
			m += heapLess(h[m2], h[m]) * (m2 - m)
		case c < n:
			m = c
			for j := c + 1; j < n; j++ {
				m += heapLess(h[j], h[m]) * (j - m)
			}
		default:
			h[i] = x
			events[x.ev].idx = i
			return
		}
		if heapLess(h[m], x) == 0 {
			break
		}
		h[i] = h[m]
		events[h[i].ev].idx = i
		i = m
	}
	h[i] = x
	events[x.ev].idx = i
}

// heapLess reports 1 if a precedes b in (at, seq) order, else 0. It
// compares the pair as one 128-bit number (at is never negative, so its
// bits order it as unsigned), a subtract-with-borrow with no branch.
func heapLess(a, b heapEntry) int {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(uint64(a.at), uint64(b.at), borrow)
	return int(borrow)
}
