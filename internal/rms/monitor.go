package rms

import (
	"fmt"

	"repro/internal/sim"
)

// Monitor implements lease-based failure detection for the RMS: every
// live allocation is granted a lease with a deadline, the owner renews it
// while the node keeps answering, and a lease whose node went silent is
// expired — releasing the fabric region and, once the node drains, its
// registry entry (the engine performs those effects; the Monitor is the
// bookkeeping).
//
// A Monitor belongs to one engine and, like the simulator it follows, is
// driven from a single goroutine; it needs no locking.
type Monitor struct {
	// leases maps each outstanding lease to its renewal deadline.
	leases map[*Lease]sim.Time
	// Granted/Settled/Expired count lease lifecycle outcomes.
	Granted int
	Settled int
	Expired int
}

// NewMonitor returns an empty monitor.
func NewMonitor() *Monitor {
	return &Monitor{leases: make(map[*Lease]sim.Time)}
}

// Grant registers a lease with its first renewal deadline.
func (m *Monitor) Grant(l *Lease, deadline sim.Time) error {
	if l == nil {
		return fmt.Errorf("rms: monitor granted a nil lease")
	}
	if _, ok := m.leases[l]; ok {
		return fmt.Errorf("rms: lease already monitored")
	}
	m.leases[l] = deadline
	m.Granted++
	return nil
}

// Renew extends a monitored lease's deadline; false if the lease is not
// (or no longer) monitored.
func (m *Monitor) Renew(l *Lease, deadline sim.Time) bool {
	if _, ok := m.leases[l]; !ok {
		return false
	}
	m.leases[l] = deadline
	return true
}

// Active reports whether a lease is still monitored.
func (m *Monitor) Active(l *Lease) bool {
	_, ok := m.leases[l]
	return ok
}

// Deadline returns a monitored lease's current deadline.
func (m *Monitor) Deadline(l *Lease) (sim.Time, bool) {
	d, ok := m.leases[l]
	return d, ok
}

// Settle removes a lease that completed normally; false if unknown.
func (m *Monitor) Settle(l *Lease) bool {
	if _, ok := m.leases[l]; !ok {
		return false
	}
	delete(m.leases, l)
	m.Settled++
	return true
}

// Expire removes a lease whose node was detected dead; false if unknown.
func (m *Monitor) Expire(l *Lease) bool {
	if _, ok := m.leases[l]; !ok {
		return false
	}
	delete(m.leases, l)
	m.Expired++
	return true
}

// Outstanding returns the number of monitored leases.
func (m *Monitor) Outstanding() int { return len(m.leases) }
