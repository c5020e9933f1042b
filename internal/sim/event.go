package sim

// Handler is the callback attached to a scheduled event. It runs when the
// simulator's clock reaches the event's time.
type Handler func()

// Event states. An event cycles free → queued → (fired | canceled) → free;
// the generation counter bumps each time it returns to the free list, so
// stale EventRefs can never act on a recycled event.
const (
	stateFree uint8 = iota
	stateQueued
	stateFired
	stateCanceled
)

// Event is a pending occurrence in virtual time. Events are ordered by
// (Time, Priority, sequence number); the sequence number makes ordering a
// total, deterministic order even for simultaneous events.
//
// Events are pooled: a *Event returned by a Scheduler's Pop is valid only
// until the next Pop on the same scheduler, and an event that was canceled
// is reclaimed as soon as the scheduler sweeps past it. Code that needs to
// refer to an event later (to cancel it) must hold the EventRef returned by
// Push, never the bare pointer.
type Event struct {
	Time     Time
	Priority int // lower runs first among simultaneous events
	Label    string
	fn       Handler
	seq      uint64
	index    int    // heap index (heap-backed schedulers); -1 when not queued
	tick     int64  // quantized time (wheel scheduler)
	gen      uint32 // recycle generation; EventRef validity check
	state    uint8
	next     *Event // free-list link
}

// Canceled reports whether the event has been canceled and will not fire.
func (e *Event) Canceled() bool { return e.state == stateCanceled }

// call invokes the event's handler.
func (e *Event) call() { e.fn() }

// eventLess is the scheduler total order: (Time, Priority, seq).
func eventLess(a, b *Event) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	if a.Priority != b.Priority {
		return a.Priority < b.Priority
	}
	return a.seq < b.seq
}

// EventRef is a safe handle to a scheduled event. The zero value refers to
// nothing. A ref stays usable forever: once its event has fired, been
// canceled, or been recycled for a new occupant, Pending reports false and
// Cancel is a no-op — so double cancels and cancels racing a completion are
// harmless by construction.
type EventRef struct {
	e   *Event
	gen uint32
}

// Pending reports whether the referenced event is still queued to fire.
func (r EventRef) Pending() bool {
	return r.e != nil && r.e.gen == r.gen && r.e.state == stateQueued
}

// Scheduler is the pending-event set of a simulation: a deterministic
// priority queue over (Time, Priority, seq) insertion order. Implementations
// are single-goroutine, like the Simulator that drives them.
//
// Contract:
//   - Push assigns the next sequence number, so two schedulers fed the same
//     Push/Cancel calls pop events in the identical order.
//   - Peek and Pop return the earliest live event; canceled events are
//     never returned. Pop's result is valid only until the next Pop.
//   - Cancel acts only when ref is still pending; it returns false for
//     fired, already-canceled, stale, or zero refs.
//   - Len counts live (non-canceled) events only.
type Scheduler interface {
	Push(t Time, priority int, label string, fn Handler) EventRef
	Peek() *Event
	Pop() *Event
	Cancel(ref EventRef) bool
	Len() int
}

// poolBlock is the most Events one free-list refill allocates. Blocks keep
// steady-state scheduling at zero allocations: after warm-up every Push
// reuses an event recycled by an earlier fire or cancel.
const poolBlock = 64

// poolFirstBlock is the first refill's size. Refills double from it up to
// poolBlock (4, 8, 16, 32, 64, 64, ...), so a scheduler that never holds
// more than a few events pending — one per control-plane tenant — pays
// for a few events rather than a full block.
const poolFirstBlock = 4

// eventPool is a free list of recycled events. Not safe for concurrent use;
// each scheduler owns its own pool.
type eventPool struct {
	free *Event
	// block is the size of the last refill; 0 before the first.
	block int
}

func (p *eventPool) alloc() *Event {
	if p.free == nil {
		p.block = min(max(2*p.block, poolFirstBlock), poolBlock)
		blk := make([]Event, p.block)
		for i := range blk {
			blk[i].next = p.free
			p.free = &blk[i]
		}
	}
	e := p.free
	p.free = e.next
	e.next = nil
	return e
}

// recycle returns an event to the free list and invalidates every EventRef
// pointing at it.
func (p *eventPool) recycle(e *Event) {
	e.gen++
	e.state = stateFree
	e.fn = nil
	e.Label = ""
	e.next = p.free
	p.free = e
}
