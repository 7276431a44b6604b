package netsim

// heapQueue is a binary-heap event queue: the engine's original queue, kept
// as the reference ordering oracle for the engine queue's differential
// tests.
type heapQueue struct{ h eventHeap }

func (q *heapQueue) push(ev *Event) { q.h.pushEvent(ev) }

func (q *heapQueue) peek() *Event {
	if len(q.h) == 0 {
		return nil
	}
	return q.h[0]
}

func (q *heapQueue) pop() *Event {
	if len(q.h) == 0 {
		return nil
	}
	ev := q.h.popMin()
	ev.idx = -1
	return ev
}

func (q *heapQueue) remove(ev *Event) {
	q.h.removeAt(ev.idx)
	ev.idx = -1
}

func (q *heapQueue) len() int { return len(q.h) }

// eventHeap orders events by time, then by scheduling order for stability.
type eventHeap []*Event

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}

// pushEvent, popMin, and removeAt expose the heap operations without the
// container/heap interface boxing (heap.Pop's `any` return would allocate).
func (h *eventHeap) pushEvent(ev *Event) {
	ev.idx = len(*h)
	*h = append(*h, ev)
	h.up(ev.idx)
}

func (h *eventHeap) popMin() *Event {
	old := *h
	n := len(old) - 1
	old.Swap(0, n)
	ev := old[n]
	old[n] = nil
	*h = old[:n]
	if n > 0 {
		h.down(0)
	}
	return ev
}

func (h *eventHeap) removeAt(i int) {
	old := *h
	n := len(old) - 1
	if i != n {
		old.Swap(i, n)
	}
	old[n] = nil
	*h = old[:n]
	if i < n {
		h.down(i)
		h.up(i)
	}
}

func (h eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.Less(i, parent) {
			return
		}
		h.Swap(i, parent)
		i = parent
	}
}

func (h eventHeap) down(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		min := l
		if r := l + 1; r < n && h.Less(r, l) {
			min = r
		}
		if !h.Less(min, i) {
			return
		}
		h.Swap(i, min)
		i = min
	}
}
