package sim

import "container/heap"

// eventHeap implements container/heap for *Event ordered by
// (Time, Priority, seq).
type eventHeap []*Event

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return eventLess(h[i], h[j]) }

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// HeapQueue is the binary-heap Scheduler: O(log n) Push/Pop, O(1) lazy
// Cancel. It is the simulator's default — simple, allocation-pooled,
// and robust at any event-time scale. The zero value is ready to use.
type HeapQueue struct {
	h     eventHeap
	seq   uint64
	live  int
	pool  eventPool
	fired *Event // last popped event, recycled on the next Pop
}

// NewHeapQueue returns an empty heap-backed scheduler.
func NewHeapQueue() *HeapQueue { return &HeapQueue{} }

// Len returns the number of live (non-canceled) queued events.
func (q *HeapQueue) Len() int { return q.live }

// Push enqueues an event at time t and returns a handle for canceling it.
func (q *HeapQueue) Push(t Time, priority int, label string, fn Handler) EventRef {
	e := q.pool.alloc()
	q.seq++
	e.Time, e.Priority, e.Label, e.fn, e.seq = t, priority, label, fn, q.seq
	e.state = stateQueued
	heap.Push(&q.h, e)
	q.live++
	return EventRef{e: e, gen: e.gen}
}

// Peek returns the earliest live event without removing it, or nil if none
// remain. Canceled events reaching the head are reclaimed on the way.
func (q *HeapQueue) Peek() *Event {
	q.dropCanceled()
	if len(q.h) == 0 {
		return nil
	}
	return q.h[0]
}

// Pop removes and returns the earliest live event, or nil if none remain.
// The returned event is valid until the next Pop.
func (q *HeapQueue) Pop() *Event {
	if q.fired != nil {
		q.pool.recycle(q.fired)
		q.fired = nil
	}
	q.dropCanceled()
	if len(q.h) == 0 {
		return nil
	}
	e := heap.Pop(&q.h).(*Event)
	e.state = stateFired
	q.live--
	q.fired = e
	return e
}

// Cancel marks a pending event so it will never fire. It returns true only
// if ref was still pending; stale or repeated cancels are no-ops.
func (q *HeapQueue) Cancel(ref EventRef) bool {
	if !ref.Pending() {
		return false
	}
	ref.e.state = stateCanceled
	q.live--
	return true
}

func (q *HeapQueue) dropCanceled() {
	for len(q.h) > 0 && q.h[0].state == stateCanceled {
		q.pool.recycle(heap.Pop(&q.h).(*Event))
	}
}
