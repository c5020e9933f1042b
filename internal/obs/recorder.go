package obs

import (
	"sync"
)

// Recorder is the in-memory TraceSink: it retains every event for
// post-hoc analysis (Gantt charts, differential checks). Memory grows
// with the run — for production-scale sweeps prefer the streaming sinks.
// The zero value is ready to use, and a Recorder is safe to share across
// engines running on different goroutines (events from concurrent sweep
// replicas interleave; within one engine they stay in virtual-time
// order).
type Recorder struct {
	mu     sync.Mutex
	events []Event // guarded by mu
}

// Emit retains one event.
func (r *Recorder) Emit(ev Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

// Sample discards the snapshot: a Recorder keeps events only. Pair it
// with a Timeline through Multi to keep samples too.
func (r *Recorder) Sample(Sample) {}

// Flush is a no-op: a Recorder holds everything in memory.
func (r *Recorder) Flush() error { return nil }

// Close is a no-op; the recorder's contents stay readable.
func (r *Recorder) Close() error { return nil }

// Events returns the recorded events in emission order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}
