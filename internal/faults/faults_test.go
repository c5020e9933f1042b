package faults

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/sim"
)

var testNodes = []string{"Node0", "Node1", "Node2", "Node3"}

func testSpec() Spec {
	s := Default()
	s.HorizonSeconds = 500
	return s
}

// drain reads a cursor over NewCursor's arguments to its end.
func drain(t testing.TB, rng *sim.RNG, spec Spec, nodeIDs []string) []Event {
	t.Helper()
	c, err := NewCursor(rng, spec, nodeIDs)
	if err != nil {
		t.Fatal(err)
	}
	var evs []Event
	for ev, ok := c.Next(); ok; ev, ok = c.Next() {
		evs = append(evs, ev)
	}
	return evs
}

func TestScheduleIsDeterministic(t *testing.T) {
	a := drain(t, sim.NewRNG(7).Split(ScheduleStream), testSpec(), testNodes)
	b := drain(t, sim.NewRNG(7).Split(ScheduleStream), testSpec(), testNodes)
	if len(a) == 0 {
		t.Fatal("expected a non-empty schedule over a 500 s horizon")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different schedules:\n%v\n%v", a, b)
	}
	c := drain(t, sim.NewRNG(8).Split(ScheduleStream), testSpec(), testNodes)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestScheduleSortedAndPaired(t *testing.T) {
	evs := drain(t, sim.NewRNG(11).Split(ScheduleStream), testSpec(), testNodes)
	crash := map[uint64]Event{}
	degrade := map[uint64]Event{}
	for i, ev := range evs {
		if i > 0 && ev.Time < evs[i-1].Time {
			t.Fatalf("event %d at %v before predecessor at %v", i, ev.Time, evs[i-1].Time)
		}
		switch ev.Kind {
		case KindNodeCrash:
			crash[ev.Seq] = ev
		case KindNodeRecover:
			c, ok := crash[ev.Seq]
			if !ok {
				t.Fatalf("recovery seq %d without a crash", ev.Seq)
			}
			if ev.Node != c.Node || ev.Time < c.Time {
				t.Fatalf("recovery %+v does not pair with crash %+v", ev, c)
			}
		case KindLinkDegrade:
			if ev.Factor < 1 {
				t.Fatalf("degrade with factor %g", ev.Factor)
			}
			degrade[ev.Seq] = ev
		case KindLinkRestore:
			d, ok := degrade[ev.Seq]
			if !ok {
				t.Fatalf("restore seq %d without a degrade", ev.Seq)
			}
			if ev.Node != d.Node || ev.Time < d.Time {
				t.Fatalf("restore %+v does not pair with degrade %+v", ev, d)
			}
		}
		if ev.Node == "" {
			t.Fatalf("event %d without a victim node", i)
		}
	}
	if len(crash) == 0 || len(degrade) == 0 {
		t.Fatalf("expected crashes and link faults, got %d/%d", len(crash), len(degrade))
	}
}

func TestScheduleDisabledOrEmpty(t *testing.T) {
	if evs := drain(t, sim.NewRNG(1), Spec{}, testNodes); evs != nil {
		t.Fatalf("zero spec: got %v", evs)
	}
	if evs := drain(t, sim.NewRNG(1), testSpec(), nil); evs != nil {
		t.Fatalf("no nodes: got %v", evs)
	}
	bad := testSpec()
	bad.HorizonSeconds = 0
	if _, err := NewCursor(sim.NewRNG(1), bad, testNodes); err == nil {
		t.Fatal("NewCursor accepted an enabled spec without a horizon")
	}
}

func TestValidateRejects(t *testing.T) {
	cases := map[string]func(*Spec){
		"negative rate":           func(s *Spec) { s.CrashRate = -1 },
		"crash without outage":    func(s *Spec) { s.MeanOutageSeconds = 0 },
		"link without duration":   func(s *Spec) { s.MeanLinkFaultSeconds = 0 },
		"degrade factor < 1":      func(s *Spec) { s.LinkDegradeFactor = 0.5 },
		"partition share > 1":     func(s *Spec) { s.PartitionShare = 1.5 },
		"enabled without horizon": func(s *Spec) { s.HorizonSeconds = 0 },
		"negative TTL":            func(s *Spec) { s.LeaseTTLSeconds = -1 },
		"negative retries":        func(s *Spec) { s.Retry.MaxRetries = -1 },
	}
	for name, mutate := range cases {
		s := testSpec()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, s)
		}
	}
	if err := testSpec().Validate(); err != nil {
		t.Fatalf("default spec with horizon rejected: %v", err)
	}
	if err := (Spec{}).Validate(); err != nil {
		t.Fatalf("zero spec rejected: %v", err)
	}
}

func TestRetryDelay(t *testing.T) {
	p := RetryPolicy{BackoffSeconds: 0.5, BackoffCapSeconds: 3}
	want := []float64{0.5, 1, 2, 3, 3}
	for i, w := range want {
		if got := p.Delay(i + 1); got != w {
			t.Errorf("Delay(%d) = %g, want %g", i+1, got, w)
		}
	}
	if got := (RetryPolicy{}).Delay(4); got != 0 {
		t.Errorf("zero policy Delay = %g, want 0", got)
	}
	// Uncapped growth must not overflow into nonsense for large counts.
	big := RetryPolicy{BackoffSeconds: 1, BackoffCapSeconds: 60}
	if got := big.Delay(500); got != 60 {
		t.Errorf("capped Delay(500) = %g, want 60", got)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindNodeCrash: "node-crash", KindNodeRecover: "node-recover",
		KindSEU: "seu", KindLinkDegrade: "link-degrade", KindLinkRestore: "link-restore",
	} {
		if k.String() != want {
			t.Errorf("Kind %d String = %q, want %q", int(k), k.String(), want)
		}
	}
}

// cursorSpecs are the specs the cursor is checked on: each process on or
// off, partition shares from none to all, and horizons from shorter than
// a mean gap to long.
func cursorSpecs() map[string]Spec {
	specs := map[string]Spec{}
	for mask := 1; mask < 8; mask++ {
		for _, horizon := range []float64{3, 60, 900} {
			for _, share := range []float64{0, 0.25, 0.9, 1} {
				s := Default()
				s.CrashRate, s.SEURate, s.LinkFaultRate = 0.05, 0.08, 0.03
				if mask&1 == 0 {
					s.CrashRate = 0
				}
				if mask&2 == 0 {
					s.SEURate = 0
				}
				if mask&4 == 0 {
					s.LinkFaultRate = 0
				}
				s.PartitionShare, s.HorizonSeconds = share, horizon
				specs[fmt.Sprintf("procs=%03b/horizon=%g/partition=%g", mask, horizon, share)] = s
			}
		}
	}
	return specs
}

// TestCursorMatchesSchedule: a cursor yields exactly the reference's
// events, in its order, over many seeds, over specs with each process on
// or off, and over one to four nodes.
func TestCursorMatchesSchedule(t *testing.T) {
	seeds := uint64(40)
	if testing.Short() {
		seeds = 8
	}
	for name, spec := range cursorSpecs() {
		for nodes := 1; nodes <= len(testNodes); nodes++ {
			for seed := uint64(0); seed < seeds; seed++ {
				checkCursor(t, fmt.Sprintf("%s/nodes=%d/seed=%d", name, nodes, seed), seed, spec, testNodes[:nodes])
			}
		}
	}
}

// checkCursor fails t unless a cursor and the reference agree on the
// timeline of (seed, spec, nodeIDs).
func checkCursor(t *testing.T, label string, seed uint64, spec Spec, nodeIDs []string) {
	t.Helper()
	want, err := Schedule(sim.NewRNG(seed).Split(ScheduleStream), spec, nodeIDs)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, sim.NewRNG(seed).Split(ScheduleStream), spec, nodeIDs)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: cursor yields %d events, the reference %d; first difference at %d", label, len(got), len(want), firstDiff(got, want))
	}
}

// firstDiff returns the first index where a and b differ.
func firstDiff(a, b []Event) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// TestCursorKeepsLittleState: a cursor over a long horizon holds only the
// second halves of overlapping outages, never the timeline.
func TestCursorKeepsLittleState(t *testing.T) {
	s := Default()
	s.HorizonSeconds = 1e6
	c, err := NewCursor(sim.NewRNG(3).Split(ScheduleStream), s, testNodes)
	if err != nil {
		t.Fatal(err)
	}
	n, most := 0, 0
	for _, ok := c.Next(); ok; _, ok = c.Next() {
		n++
		most = max(most, len(c.ends))
	}
	if n < 10_000 || most > 16 {
		t.Fatalf("%d events with up to %d pending second halves; want a long timeline and a short pending set", n, most)
	}
}

// FuzzFaultCursor decodes a spec, a seed and a node count and checks the
// cursor against the reference on them.
func FuzzFaultCursor(f *testing.F) {
	f.Add(uint64(1), uint8(7), uint8(4), uint16(500), uint8(64), uint8(3))
	f.Add(uint64(2), uint8(1), uint8(0), uint16(3), uint8(0), uint8(0))
	f.Add(uint64(3), uint8(4), uint8(255), uint16(60), uint8(255), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, procs, share uint8, horizon uint16, rate, nodes uint8) {
		s := Default()
		r := 0.01 + float64(rate)/256
		if procs&1 != 0 {
			s.CrashRate = r
		} else {
			s.CrashRate = 0
		}
		if procs&2 != 0 {
			s.SEURate = r / 2
		} else {
			s.SEURate = 0
		}
		if procs&4 != 0 {
			s.LinkFaultRate = r / 3
		} else {
			s.LinkFaultRate = 0
		}
		s.PartitionShare = float64(share) / 255
		s.HorizonSeconds = 1 + float64(horizon%2000)
		checkCursor(t, "fuzz", seed, s, testNodes[:int(nodes)%(len(testNodes)+1)])
	})
}
