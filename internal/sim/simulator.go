package sim

import (
	"context"
	"fmt"
	"slices"
)

// Simulator owns a virtual clock and a pending-event scheduler and executes
// events in deterministic order. It is single-threaded by design: handlers
// run on the caller's goroutine, one at a time, which keeps simulation
// state free of data races without locks.
type Simulator struct {
	queue Scheduler
	now   Time
	// lastSeq is the sequence number of the last event pushed: a stream
	// attached now sorts its items after that event and before every
	// later one.
	lastSeq uint64
	// streams holds the attached streams with items left, in attach
	// order; streamed counts the items they have announced and not
	// fired.
	streams  []*stream
	streamed int
	// Horizon, when non-zero, bounds Run: events and stream items after
	// the horizon stay pending and Run returns once the clock would pass
	// it.
	Horizon Time
}

// stream is one attached pull stream: its next item fires at t. Every
// stream runs on one item of lookahead, pulled before the item ahead of
// it fires.
type stream struct {
	label string
	next  func() (Time, bool)
	fire  func()
	after uint64 // the simulator's lastSeq when the stream was attached
	t     Time
}

// before reports whether the stream's next item runs before queued event
// e: it sorts as an event whose sequence number falls just after the
// stream's attach point.
func (st *stream) before(e *Event) bool {
	if st.t != e.Time {
		return st.t < e.Time
	}
	return st.after < e.seq
}

// Option configures a Simulator at construction time.
type Option func(*Simulator)

// WithScheduler selects the pending-event set implementation. The default
// is the binary heap (NewHeapQueue); pass NewWheelQueue() for the timing
// wheel. Any Scheduler obeying the (Time, Priority, seq) contract yields
// bit-identical simulations, so this is a pure performance knob — and the
// seam future parallel schedulers plug into.
func WithScheduler(q Scheduler) Option {
	return func(s *Simulator) { s.queue = q }
}

// NewSimulator returns a simulator with the clock at TimeZero.
func NewSimulator(opts ...Option) *Simulator {
	s := &Simulator{}
	for _, o := range opts {
		o(s)
	}
	if s.queue == nil {
		s.queue = NewHeapQueue()
	}
	return s
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Pending returns the number of live queued events and of the stream
// items announced and not yet fired: every unfired item of a Stream, and
// the item a Pull stream looks ahead to. Canceled events do not count: a
// simulation whose remaining events were all canceled reports 0.
func (s *Simulator) Pending() int { return s.queue.Len() + s.streamed }

// push enqueues an event and records its sequence number for Stream.
func (s *Simulator) push(t Time, label string, fn Handler) EventRef {
	ref := s.queue.Push(t, 0, label, fn)
	s.lastSeq = ref.e.seq
	return ref
}

// Schedule enqueues fn to run at absolute time t. Scheduling in the past is
// an error that would break causality, so it panics — such a call is always
// a programming bug in a model, never an input condition.
func (s *Simulator) Schedule(t Time, label string, fn Handler) EventRef {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling %q at %v before now %v", label, t, s.now))
	}
	return s.push(t, label, fn)
}

// After enqueues fn to run d seconds after the current time.
func (s *Simulator) After(d Time, label string, fn Handler) EventRef {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v for %q", d, label))
	}
	return s.push(s.now+d, label, fn)
}

// Pull attaches a stream whose items come from next, which returns the
// time of the stream's next item and false once it has none. The
// simulator pulls the first item now and each later one just before the
// item ahead of it fires, then calls fire, which runs the item that was
// due: the source keeps that item while the simulator looks one ahead.
// Items sort as Stream's do, and cannot be canceled. A pulled item
// earlier than Now or than the item before it (NaN included) panics, as
// Schedule does on a time in the past. Once the stream runs out, the
// simulator drops next and fire before its last item fires, so Pending
// no longer counts it there.
func (s *Simulator) Pull(label string, next func() (Time, bool), fire func()) {
	t, ok := next()
	if !ok {
		return
	}
	if !(t >= s.now) {
		panic(fmt.Sprintf("sim: stream %q item at %v, before now %v", label, t, s.now))
	}
	s.streams = append(s.streams, &stream{label: label, next: next, fire: fire, after: s.lastSeq, t: t})
	s.streamed++
}

// Stream attaches n items that fire in index order, item i calling
// fire(i) at time at(i), without queuing an event per item: it is a pull
// stream over the index. Each item runs exactly where n Schedule
// calls, made in index order now, would have put it: among events tied
// on time, after those queued before this call and before those pushed
// after it. Items cannot be canceled. at must be non-decreasing in
// i and no earlier than Now; Stream checks every item and panics on a
// violation (NaN included), as Schedule does on a time in the past.
// Once its last item fires, the stream drops at and fire.
func (s *Simulator) Stream(n int, label string, at func(i int) Time, fire func(i int)) {
	if n <= 0 {
		return
	}
	prev := s.now
	for i := 0; i < n; i++ {
		t := at(i)
		if !(t >= prev) {
			panic(fmt.Sprintf("sim: stream %q item %d at %v, before %v", label, i, t, prev))
		}
		prev = t
	}
	// Pending counts every unfired item, as n Schedule calls would: Pull
	// counts the item it looks ahead to, and the rest count here until
	// they come into view.
	s.streamed += n - 1
	i := -1
	s.Pull(label, func() (Time, bool) {
		if i++; i == n {
			return 0, false
		}
		if i > 0 {
			s.streamed--
		}
		return at(i), true
	}, func() { fire(i - 1) })
}

// Cancel prevents a scheduled event from firing. It is safe on zero,
// stale, or repeated refs; it returns true only when the event was still
// pending.
func (s *Simulator) Cancel(ref EventRef) bool { return s.queue.Cancel(ref) }

// head finds the earliest pending item: the next item of stream st, or
// the queue's head event when st is nil. ok is false when nothing is
// pending. Among streams tied on time the earliest attached runs first.
func (s *Simulator) head() (t Time, st *stream, ok bool) {
	e := s.queue.Peek()
	for _, c := range s.streams {
		if st == nil || c.t < st.t {
			st = c
		}
	}
	switch {
	case st != nil && (e == nil || st.before(e)):
		return st.t, st, true
	case e != nil:
		return e.Time, nil, true
	}
	return 0, nil, false
}

// fire runs the item head chose: stream st's next item, or the queue's
// head event when st is nil.
func (s *Simulator) fire(st *stream) {
	if st != nil {
		s.fireStream(st)
		return
	}
	e := s.queue.Pop()
	s.now = e.Time
	// The event stays in the scheduler's fired slot until the next Pop,
	// so release the handler before running it: a drained simulator must
	// not keep its last handler's closure, and what it captured, alive.
	fn := e.fn
	e.fn = nil
	fn()
}

// fireStream runs a stream's next item after pulling the one behind it.
// An exhausted stream is detached, and its closures dropped, before its
// last item runs.
func (s *Simulator) fireStream(st *stream) {
	fire := st.fire
	s.now = st.t
	if t, ok := st.next(); ok {
		if !(t >= st.t) {
			panic(fmt.Sprintf("sim: stream %q item at %v, before %v", st.label, t, st.t))
		}
		st.t = t
	} else {
		s.streamed--
		st.next, st.fire = nil, nil
		s.streams = slices.DeleteFunc(s.streams, func(c *stream) bool { return c == st })
	}
	fire()
}

// Run executes events until the queue drains or the horizon (if set) is
// reached, and returns nil.
func (s *Simulator) Run() error { return s.RunContext(nil) }

// ctxCheckInterval is how many events RunContext executes between
// ctx.Err() polls. Checking on every event would put a synchronized read
// on the hot path; a diverging model fires thousands of events per
// millisecond, so a few hundred events of cancellation latency is
// negligible.
const ctxCheckInterval = 256

// RunContext is Run under a context: the event loop polls ctx.Err() every
// ctxCheckInterval events (and before the first one) and returns the
// context's error as soon as cancellation or a deadline is observed. The
// clock and all model state are left exactly where the last executed event
// put them, so callers can still read partial results. A nil ctx disables
// the checks entirely.
//
// Dispatch is batched per timestamp: once an event at time t has fired,
// every further event at exactly t runs without re-checking the horizon —
// the clock cannot cross it without advancing — so dense simultaneous
// bursts pay one boundary check, not one per event.
func (s *Simulator) RunContext(ctx context.Context) error {
	sinceCheck := 0
	for {
		if ctx != nil && sinceCheck == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		sinceCheck++
		if sinceCheck >= ctxCheckInterval {
			sinceCheck = 0
		}
		t, st, ok := s.head()
		if !ok {
			return nil
		}
		if t != s.now && s.Horizon > 0 && t > s.Horizon {
			s.now = s.Horizon
			return nil
		}
		s.fire(st)
	}
}
