package sim

import (
	"context"
	"errors"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestSimulatorRunsEventsInTimeOrder(t *testing.T) {
	s := NewSimulator()
	var order []string
	s.Schedule(3, "c", func() { order = append(order, "c") })
	s.Schedule(1, "a", func() { order = append(order, "a") })
	s.Schedule(2, "b", func() { order = append(order, "b") })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"a", "b", "c"}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if s.Now() != 3 {
		t.Errorf("Now = %v, want 3", s.Now())
	}
}

func TestSimultaneousEventsRunInScheduleOrder(t *testing.T) {
	s := NewSimulator()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(5, "e", func() { order = append(order, i) })
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events out of schedule order: %v", order)
		}
	}
}

// TestPriorityBreaksTies: among simultaneous events a scheduler pops the
// lower priority first, whatever the push order.
func TestPriorityBreaksTies(t *testing.T) {
	for name, q := range map[string]Scheduler{"heap": NewHeapQueue(), "wheel": NewWheelQueue()} {
		q.Push(1, 5, "low", func() {})
		q.Push(1, 1, "high", func() {})
		if e := q.Pop(); e == nil || e.Label != "high" {
			t.Fatalf("%s: first Pop = %v, want high", name, e)
		}
		if e := q.Pop(); e == nil || e.Label != "low" {
			t.Fatalf("%s: second Pop = %v, want low", name, e)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	s := NewSimulator()
	var at Time
	s.Schedule(10, "outer", func() {
		s.After(5, "inner", func() { at = s.Now() })
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if at != 15 {
		t.Errorf("inner fired at %v, want 15", at)
	}
}

func TestCancelPreventsExecution(t *testing.T) {
	s := NewSimulator()
	fired := false
	e := s.Schedule(1, "x", func() { fired = true })
	if !s.Cancel(e) {
		t.Fatal("Cancel returned false for pending event")
	}
	if s.Cancel(e) {
		t.Fatal("second Cancel should return false")
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired {
		t.Error("canceled event fired")
	}
}

// TestRunUntilLeavesLaterEventsQueued: a run cut at its horizon leaves
// the clock on the horizon and every later event queued.
func TestRunUntilLeavesLaterEventsQueued(t *testing.T) {
	s := NewSimulator()
	var fired []Time
	for _, at := range []Time{1, 2, 3, 10} {
		at := at
		s.Schedule(at, "e", func() { fired = append(fired, at) })
	}
	s.Horizon = 5
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(fired) != 3 {
		t.Fatalf("fired %v, want 3 events", fired)
	}
	if s.Now() != 5 {
		t.Errorf("Now = %v, want 5", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", s.Pending())
	}
}

// TestStopHaltsRun: cancelling RunContext's context from a handler stops
// the run within ctxCheckInterval events with the context's error, and
// leaves the clock on the last executed event.
func TestStopHaltsRun(t *testing.T) {
	s := NewSimulator()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n := 0
	var step func()
	step = func() {
		n++
		if n == 3 {
			cancel()
		}
		s.After(1, "step", step)
	}
	s.After(1, "step", step)
	if err := s.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = %v, want context.Canceled", err)
	}
	if n > 3+ctxCheckInterval {
		t.Errorf("executed %d steps after cancelling at step 3", n)
	}
	if s.Now() != Time(n) {
		t.Errorf("Now = %v after %d steps; the clock must stay on the last executed event", s.Now(), n)
	}
}

func TestHorizonStopsRun(t *testing.T) {
	s := NewSimulator()
	s.Horizon = 5
	fired := 0
	for _, at := range []Time{1, 4, 6} {
		s.Schedule(at, "e", func() { fired++ })
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != 2 {
		t.Errorf("fired = %d, want 2", fired)
	}
	if s.Now() != 5 {
		t.Errorf("Now = %v, want horizon 5", s.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := NewSimulator()
	s.Schedule(5, "x", func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.Schedule(1, "past", func() {})
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestCanceledHeadSkipped(t *testing.T) {
	for name, q := range map[string]Scheduler{"heap": NewHeapQueue(), "wheel": NewWheelQueue()} {
		e1 := q.Push(1, 0, "a", func() {})
		q.Push(2, 0, "b", func() {})
		q.Cancel(e1)
		got := q.Pop()
		if got == nil || got.Label != "b" {
			t.Fatalf("%s: Pop = %v, want event b", name, got)
		}
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{TimeInf, "+inf"},
		{Time(2), "2s"},
		{Time(0.5), "500ms"},
		{Time(2e-6), "2µs"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%v.String() = %q, want %q", float64(c.t), got, c.want)
		}
	}
}

func TestTimeHelpers(t *testing.T) {
	if !TimeInf.IsInf() {
		t.Error("TimeInf.IsInf = false")
	}
	if Time(math.MaxFloat64).IsInf() || Time(math.Inf(-1)).IsInf() {
		t.Error("IsInf holds for a finite time or -inf")
	}
}

func TestSchedulerMatchesReferenceOrdering(t *testing.T) {
	// Property: popping a scheduler yields events sorted by
	// (time, priority, insertion order), matching a reference sort —
	// for both implementations.
	for name, mk := range map[string]func() Scheduler{
		"heap":  func() Scheduler { return NewHeapQueue() },
		"wheel": func() Scheduler { return NewWheelQueue() },
	} {
		f := func(seed uint64) bool {
			r := NewRNG(seed)
			q := mk()
			type ref struct {
				t    Time
				prio int
				seq  int
			}
			var refs []ref
			n := 2 + r.Intn(200)
			for i := 0; i < n; i++ {
				at := Time(r.Intn(50))
				prio := r.Intn(3)
				q.Push(at, prio, "e", func() {})
				refs = append(refs, ref{at, prio, i})
			}
			sort.SliceStable(refs, func(i, j int) bool {
				if refs[i].t != refs[j].t {
					return refs[i].t < refs[j].t
				}
				return refs[i].prio < refs[j].prio
			})
			for _, want := range refs {
				got := q.Pop()
				if got == nil || got.Time != want.t || got.Priority != want.prio {
					return false
				}
			}
			return q.Pop() == nil
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
