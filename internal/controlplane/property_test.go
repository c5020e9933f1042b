package controlplane

import (
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/sim"
)

// TestPropertyTaskConservation hammers a sharded server from concurrent
// clients with a random interleaving of submits, cancels, status polls,
// pauses, resumes, and drains, then checks the conservation invariant
// for every tenant:
//
//	Submitted == Completed + Rejected + Evicted + Canceled + InFlight
//
// and, after a final drain, InFlight == 0 — no task is ever lost or
// double-counted regardless of interleaving. Run under -race this also
// exercises the shard ownership discipline.
func TestPropertyTaskConservation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shards = 3
	cfg.Seed = 42
	s := newTestServer(t, cfg)

	const (
		clients = 8
		ops     = 400
		tenants = 24
	)
	tiers := []string{"", "full", "virtualized", "background"}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := sim.NewRNG(uint64(1000 + c))
			for i := 0; i < ops; i++ {
				tenant := "tenant-" + strconv.Itoa(rng.Intn(tenants))
				switch rng.Intn(10) {
				case 0:
					s.Do(Request{Op: OpCancel, Tenant: tenant, TaskID: taskID("c"+strconv.Itoa(c), rng.Intn(ops))})
				case 1:
					s.Do(Request{Op: OpStatus, Tenant: tenant, TaskID: taskID("c"+strconv.Itoa(c), rng.Intn(ops))})
				case 2:
					s.Do(Request{Op: OpStats, Tenant: tenant})
				case 3:
					switch rng.Intn(3) {
					case 0:
						s.Do(Request{Op: OpPause})
					case 1:
						s.Do(Request{Op: OpResume})
					default:
						s.Do(Request{Op: OpDrain})
					}
				default:
					// Tenant tier is a pure function of the tenant name so
					// concurrent creators never conflict.
					tier := tiers[int(tenantHash(tenant)%uint64(len(tiers)))]
					s.Do(Request{Op: OpSubmit, Tenant: tenant, Tier: tier,
						Task: spec(taskID("c"+strconv.Itoa(c), i), float64(10+rng.Intn(500)))})
				}
			}
		}(c)
	}
	wg.Wait()
	mustOK(t, s.Do(Request{Op: OpDrain}))

	all, err := s.StatsAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) == 0 {
		t.Fatal("no tenants created")
	}
	totalSubmitted := 0
	for _, st := range all {
		if !st.conserved() {
			t.Errorf("tenant %s violates conservation: %+v", st.Tenant, st)
		}
		if st.InFlight != 0 {
			t.Errorf("tenant %s has %d in flight after drain", st.Tenant, st.InFlight)
		}
		if st.Accepted != st.Submitted-st.Rejected {
			t.Errorf("tenant %s: accepted %d != submitted %d - rejected %d", st.Tenant, st.Accepted, st.Submitted, st.Rejected)
		}
		totalSubmitted += st.Submitted
	}
	if totalSubmitted == 0 {
		t.Fatal("no submissions recorded")
	}
}

// TestPropertyQuotaMonotonic replays one fixed submit sequence against
// increasing admission rates and checks monotonicity: a tenant with a
// larger quota never gets fewer tasks admitted.
func TestPropertyQuotaMonotonic(t *testing.T) {
	run := func(rate float64) int {
		clock := int64(0)
		cfg := DefaultConfig()
		cfg.Shards = 2
		cfg.NowNanos = func() int64 { return clock }
		cfg.RateOverride = rate
		cfg.BurstOverride = 4
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Shutdown()
		mustOK(t, s.Do(Request{Op: OpPause}))
		rng := sim.NewRNG(7)
		admitted := 0
		for i := 0; i < 300; i++ {
			clock += int64(rng.Intn(200)) * 1_000_000 // 0–200 ms steps
			if s.Do(Request{Op: OpSubmit, Tenant: "m", Task: spec(taskID("q", i), 100)}).OK {
				admitted++
			}
		}
		st := mustOK(t, s.Do(Request{Op: OpStats, Tenant: "m"})).Stats
		if st.Accepted != admitted || !st.conserved() {
			t.Fatalf("rate %v: stats %+v disagree with %d admissions", rate, st, admitted)
		}
		return admitted
	}
	prev := -1
	for _, rate := range []float64{0.5, 1, 2, 5, 20, 100} {
		got := run(rate)
		if got < prev {
			t.Fatalf("rate %v admitted %d < %d at a lower rate", rate, got, prev)
		}
		prev = got
	}
	if prev != 300 {
		t.Errorf("highest rate admitted %d of 300; expected all", prev)
	}
}

// TestPropertyQuotaBound checks the token-bucket upper bound end to end
// under concurrent submitters sharing one tenant: admissions over the
// run never exceed burst + rate·Δ.
func TestPropertyQuotaBound(t *testing.T) {
	var clock atomic.Int64
	cfg := DefaultConfig()
	cfg.NowNanos = clock.Load
	cfg.RateOverride = 50
	cfg.BurstOverride = 10
	s := newTestServer(t, cfg)
	mustOK(t, s.Do(Request{Op: OpPause}))
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				clock.Add(1_000_000) // each attempt advances the clock 1 ms
				s.Do(Request{Op: OpSubmit, Tenant: "shared", Task: spec(taskID("c"+strconv.Itoa(c), i), 50)})
			}
		}(c)
	}
	wg.Wait()
	st := mustOK(t, s.Do(Request{Op: OpStats, Tenant: "shared"})).Stats
	elapsed := float64(clock.Load()) / 1e9
	bound := 10 + 50*elapsed + 1
	if float64(st.Accepted) > bound {
		t.Errorf("accepted %d exceeds bound %.1f over %.3fs", st.Accepted, bound, elapsed)
	}
	if !st.conserved() {
		t.Errorf("conservation: %+v", st)
	}
}

// conserved reports whether the tenant's counters balance.
func (s TenantStats) conserved() bool {
	return s.Submitted == s.Completed+s.Rejected+s.Evicted+s.Canceled+s.InFlight
}
