package rms

import (
	"testing"
)

func TestMonitorLifecycle(t *testing.T) {
	m := NewMonitor()
	a, b := &Lease{}, &Lease{}
	if err := m.Grant(a, 5); err != nil {
		t.Fatal(err)
	}
	if err := m.Grant(a, 6); err == nil {
		t.Fatal("double grant accepted")
	}
	if err := m.Grant(nil, 5); err == nil {
		t.Fatal("nil grant accepted")
	}
	if err := m.Grant(b, 7); err != nil {
		t.Fatal(err)
	}
	if m.Outstanding() != 2 || !m.Active(a) || !m.Active(b) {
		t.Fatalf("outstanding=%d active(a)=%v active(b)=%v", m.Outstanding(), m.Active(a), m.Active(b))
	}
	if d, ok := m.Deadline(a); !ok || d != 5 {
		t.Fatalf("Deadline(a) = %v, %v", d, ok)
	}
	if !m.Renew(a, 10) {
		t.Fatal("renew of active lease failed")
	}
	if d, _ := m.Deadline(a); d != 10 {
		t.Fatalf("renewed deadline = %v, want 10", d)
	}
	if !m.Settle(a) || m.Settle(a) {
		t.Fatal("settle semantics broken")
	}
	if m.Renew(a, 20) {
		t.Fatal("renewed a settled lease")
	}
	if !m.Expire(b) || m.Expire(b) {
		t.Fatal("expire semantics broken")
	}
	if m.Outstanding() != 0 || m.Granted != 2 || m.Settled != 1 || m.Expired != 1 {
		t.Fatalf("counters: outstanding=%d granted=%d settled=%d expired=%d",
			m.Outstanding(), m.Granted, m.Settled, m.Expired)
	}
}
