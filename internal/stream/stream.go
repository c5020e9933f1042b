// Package stream implements the paper's future-work item: a virtualization
// scenario for streaming applications. The ICPP'12 framework handles
// run-to-completion tasks only ("currently, the framework does not support
// streaming applications"); this extension adds continuous dataflows with
// throughput guarantees.
//
// A streaming task is admitted, not scheduled: the manager finds a
// processing element whose sustainable throughput meets the stream's input
// rate, reserves it for the session duration, and releases it when the
// session ends. Hardware accelerators shine here — a partial-reconfiguration
// region can host one pipeline per stream, and several streams co-reside on
// one fabric.
package stream

import (
	"fmt"

	"repro/internal/pe"
	"repro/internal/rms"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/task"
)

// Spec describes a streaming session request.
type Spec struct {
	// ID names the stream.
	ID string
	// RateMBps is the continuous input data rate the grid must sustain.
	RateMBps float64
	// MIPerMB is the compute demand per megabyte of stream data.
	MIPerMB float64
	// ParallelFraction is the per-chunk Amdahl profile of the kernel.
	ParallelFraction float64
	// HWSpeedup is the user-characterized acceleration factor, used when
	// the stream ships its own device-specific bitstream (cf. Work.HWSpeedup).
	HWSpeedup float64
	// Duration is the session length in virtual time.
	Duration sim.Time
	// Req places the same scenario/requirement constraints as batch tasks:
	// a stream can demand a soft-core, a synthesized accelerator, or a
	// device-specific pipeline.
	Req task.ExecReq
}

// Validate reports impossible stream requests.
func (s Spec) Validate() error {
	switch {
	case s.ID == "":
		return fmt.Errorf("stream: spec without an ID")
	case s.RateMBps <= 0:
		return fmt.Errorf("stream: %s has non-positive rate", s.ID)
	case s.MIPerMB <= 0:
		return fmt.Errorf("stream: %s has non-positive compute demand", s.ID)
	case s.ParallelFraction < 0 || s.ParallelFraction > 1:
		return fmt.Errorf("stream: %s has parallel fraction outside [0,1]", s.ID)
	case s.HWSpeedup < 0:
		return fmt.Errorf("stream: %s has negative hardware speedup", s.ID)
	case s.Duration <= 0:
		return fmt.Errorf("stream: %s has non-positive duration", s.ID)
	}
	return s.Req.Validate()
}

// chunkWork converts the per-MB demand into the Work unit the estimators
// consume.
func (s Spec) chunkWork() pe.Work {
	return pe.Work{
		MInstructions:    s.MIPerMB,
		ParallelFraction: s.ParallelFraction,
		DataMB:           1,
		HWSpeedup:        s.HWSpeedup,
	}
}

// Session is an admitted stream holding its reservation.
type Session struct {
	Spec  Spec
	Cand  rms.Candidate
	Lease *rms.Lease
	// ThroughputMBps is the element's sustainable rate for this kernel.
	ThroughputMBps float64
	// Headroom is ThroughputMBps / RateMBps (≥ 1 on admission).
	Headroom float64
	// Start and End bound the session in virtual time.
	Start, End sim.Time

	mgr    *Manager
	closed bool
}

// Manager performs admission control and reservation for streams.
type Manager struct {
	mm  *rms.Matchmaker
	sim *sim.Simulator

	active map[string]*Session
	// Admitted and Rejected count admission outcomes.
	Admitted int
	Rejected int
}

// NewManager builds a streaming manager over the grid's matchmaker and a
// simulator for session timing.
func NewManager(mm *rms.Matchmaker, s *sim.Simulator) (*Manager, error) {
	if mm == nil || s == nil {
		return nil, fmt.Errorf("stream: manager needs a matchmaker and simulator")
	}
	return &Manager{mm: mm, sim: s, active: make(map[string]*Session)}, nil
}

// Admit reserves, through the placement step, the element whose
// throughput (MB/s: the inverse of the per-MB execution time) is highest
// and meets the stream's rate, and schedules the automatic release. It
// fails — counting a rejection — when no element sustains the rate or
// every one that does is saturated.
func (m *Manager) Admit(spec Spec) (*Session, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if _, dup := m.active[spec.ID]; dup {
		return nil, fmt.Errorf("stream: %s already active", spec.ID)
	}
	// The fastest option meeting the rate; the first one wins a tie.
	feasible := false
	fastest := func(opts []sched.Option) int {
		best := -1
		for i, o := range opts {
			if o.ExecSeconds > 0 && 1/o.ExecSeconds >= spec.RateMBps && (best < 0 || 1/o.ExecSeconds > 1/opts[best].ExecSeconds) {
				best = i
			}
		}
		feasible = feasible || best >= 0
		return best
	}
	var opts []sched.Option
	p, ok := sched.Place(m.mm, &spec.Req, spec.chunkWork(), nil, fastest, &opts)
	switch {
	case !feasible:
		m.Rejected++
		return nil, fmt.Errorf("stream: no element sustains %.1f MB/s for %s", spec.RateMBps, spec.ID)
	case !ok:
		m.Rejected++
		return nil, fmt.Errorf("stream: all feasible elements saturated for %s", spec.ID)
	}
	tput := 1 / p.ExecSeconds
	sess := &Session{
		Spec:           spec,
		Cand:           p.Lease.Cand,
		Lease:          &p.Lease,
		ThroughputMBps: tput,
		Headroom:       tput / spec.RateMBps,
		Start:          m.sim.Now(),
		End:            m.sim.Now() + spec.Duration,
		mgr:            m,
	}
	m.active[spec.ID] = sess
	m.Admitted++
	m.sim.Schedule(sess.End, "stream-end "+spec.ID, func() {
		// The session may have been stopped early.
		if cur, ok := m.active[spec.ID]; ok && cur == sess {
			_ = sess.Close()
		}
	})
	return sess, nil
}

// Close releases the session's reservation; it is idempotent via the
// manager's bookkeeping and safe to call before the scheduled end.
func (s *Session) Close() error {
	if s.closed {
		return fmt.Errorf("stream: session %s already closed", s.Spec.ID)
	}
	s.closed = true
	delete(s.mgr.active, s.Spec.ID)
	return s.Lease.Release()
}

// DataMB returns the volume processed over the full session.
func (s *Session) DataMB() float64 {
	return s.Spec.RateMBps * float64(s.Spec.Duration)
}

// Active returns the number of live sessions.
func (m *Manager) Active() int { return len(m.active) }
