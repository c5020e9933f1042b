package sim

import (
	"context"
	"errors"
	"fmt"
)

// ErrStopped is returned by Run when the simulation was halted via Stop
// before the event queue drained.
var ErrStopped = errors.New("sim: stopped")

// Simulator owns a virtual clock and a pending-event scheduler and executes
// events in deterministic order. It is single-threaded by design: handlers
// run on the caller's goroutine, one at a time, which keeps simulation
// state free of data races without locks.
type Simulator struct {
	queue   Scheduler
	now     Time
	stopped bool
	// Executed counts events that have fired.
	Executed uint64
	// Horizon, when non-zero, bounds Run: events after the horizon stay
	// queued and Run returns once the clock would pass it.
	Horizon Time
	// Trace, when non-nil, receives a line per executed event.
	Trace func(t Time, label string)
}

// Option configures a Simulator at construction time.
type Option func(*Simulator)

// WithScheduler selects the pending-event set implementation. The default
// is the timing wheel (NewWheelQueue); pass NewHeapQueue() for the binary
// heap. Any Scheduler obeying the (Time, Priority, seq) contract yields
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
		s.queue = NewWheelQueue()
	}
	return s
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Pending returns the number of live queued events. Canceled events do not
// count: a simulation whose remaining events were all canceled reports 0.
func (s *Simulator) Pending() int { return s.queue.Len() }

// Schedule enqueues fn to run at absolute time t. Scheduling in the past is
// an error that would break causality, so it panics — such a call is always
// a programming bug in a model, never an input condition.
func (s *Simulator) Schedule(t Time, label string, fn Handler) EventRef {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling %q at %v before now %v", label, t, s.now))
	}
	return s.queue.Push(t, 0, label, fn)
}

// After enqueues fn to run d seconds after the current time.
func (s *Simulator) After(d Time, label string, fn Handler) EventRef {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v for %q", d, label))
	}
	return s.queue.Push(s.now+d, 0, label, fn)
}

// ScheduleWithPriority is Schedule with an explicit tie-break priority;
// lower priorities run first among simultaneous events.
func (s *Simulator) ScheduleWithPriority(t Time, priority int, label string, fn Handler) EventRef {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling %q at %v before now %v", label, t, s.now))
	}
	return s.queue.Push(t, priority, label, fn)
}

// Cancel prevents a scheduled event from firing. It is safe on zero,
// stale, or repeated refs; it returns true only when the event was still
// pending.
func (s *Simulator) Cancel(ref EventRef) bool { return s.queue.Cancel(ref) }

// Stop halts the run loop after the current handler returns.
func (s *Simulator) Stop() { s.stopped = true }

// Step executes the single earliest event, advancing the clock to its time.
// It returns false when no events remain.
func (s *Simulator) Step() bool {
	e := s.queue.Pop()
	if e == nil {
		return false
	}
	s.now = e.Time
	s.Executed++
	if s.Trace != nil {
		s.Trace(s.now, e.Label)
	}
	// The event stays in the scheduler's fired slot until the next Pop,
	// so release the handler before running it: a drained simulator must
	// not keep its last handler's closure, and what it captured, alive.
	fn := e.fn
	e.fn = nil
	fn()
	return true
}

// Run executes events until the queue drains, Stop is called, or the horizon
// (if set) is reached. It returns nil on a drained queue or horizon stop and
// ErrStopped if halted explicitly.
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
	s.stopped = false
	sinceCheck := 0
	for {
		if s.stopped {
			return ErrStopped
		}
		if ctx != nil && sinceCheck == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		sinceCheck++
		if sinceCheck >= ctxCheckInterval {
			sinceCheck = 0
		}
		next := s.queue.Peek()
		if next == nil {
			return nil
		}
		if next.Time != s.now && s.Horizon > 0 && next.Time > s.Horizon {
			s.now = s.Horizon
			return nil
		}
		s.Step()
	}
}

// RunUntil executes events with time ≤ t and leaves the clock at
// min(t, last event time ≥ t boundary). Later events remain queued.
func (s *Simulator) RunUntil(t Time) error {
	s.stopped = false
	for {
		if s.stopped {
			return ErrStopped
		}
		next := s.queue.Peek()
		if next == nil || next.Time > t {
			if s.now < t {
				s.now = t
			}
			return nil
		}
		s.Step()
	}
}
