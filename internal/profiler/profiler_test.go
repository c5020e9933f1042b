package profiler

import (
	"math"
	"strings"
	"testing"
	"time"
)

// fakeClock is a manually advanced time source for deterministic tests.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration      { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t += d }

func TestSelfAndCumulativeAttribution(t *testing.T) {
	c := &fakeClock{}
	p := NewWithClock(c.now)

	leaveMain := p.Enter("main")
	c.advance(10 * time.Millisecond) // main self
	leavePair := p.Enter("pairalign")
	c.advance(80 * time.Millisecond) // pairalign self
	leavePair()
	c.advance(5 * time.Millisecond) // main self again
	leaveMal := p.Enter("malign")
	c.advance(5 * time.Millisecond) // malign self
	leaveMal()
	leaveMain()

	flat := p.Flat()
	if len(flat) != 3 {
		t.Fatalf("flat has %d rows", len(flat))
	}
	if flat[0].Name != "pairalign" {
		t.Errorf("top kernel = %s", flat[0].Name)
	}
	if flat[0].Self != 80*time.Millisecond {
		t.Errorf("pairalign self = %v", flat[0].Self)
	}
	if math.Abs(flat[0].SelfPercent-80) > 1e-9 {
		t.Errorf("pairalign %% = %v, want 80", flat[0].SelfPercent)
	}
	// malign: 5 % of self time; main: self 15 ms, cumulative 100 ms.
	for _, l := range flat {
		if l.Name == "malign" && l.SelfPercent != 5 {
			t.Errorf("malign %% = %v", l.SelfPercent)
		}
		if l.Name == "main" {
			if l.Self != 15*time.Millisecond {
				t.Errorf("main self = %v", l.Self)
			}
			if l.Cumulative != 100*time.Millisecond {
				t.Errorf("main cum = %v", l.Cumulative)
			}
		}
	}
	if p.TotalSelf() != 100*time.Millisecond {
		t.Errorf("total = %v", p.TotalSelf())
	}
}

func TestRecursionDoesNotDoubleCountCumulative(t *testing.T) {
	c := &fakeClock{}
	p := NewWithClock(c.now)
	var rec func(depth int)
	rec = func(depth int) {
		defer p.Enter("diff")()
		c.advance(time.Millisecond)
		if depth > 0 {
			rec(depth - 1)
		}
	}
	rec(9) // 10 activations, 10 ms total
	flat := p.Flat()
	if len(flat) != 1 {
		t.Fatalf("flat rows = %d", len(flat))
	}
	if flat[0].Self != 10*time.Millisecond {
		t.Errorf("self = %v", flat[0].Self)
	}
	if flat[0].Cumulative != 10*time.Millisecond {
		t.Errorf("cum = %v (recursion double-counted)", flat[0].Cumulative)
	}
	if flat[0].Calls != 10 {
		t.Errorf("calls = %d", flat[0].Calls)
	}
}

func TestCallGraphEdges(t *testing.T) {
	c := &fakeClock{}
	p := NewWithClock(c.now)
	leaveA := p.Enter("pairalign")
	for i := 0; i < 3; i++ {
		leaveB := p.Enter("forward_pass")
		c.advance(2 * time.Millisecond)
		leaveB()
	}
	leaveA()
	edges := p.CallGraph()
	if len(edges) != 1 {
		t.Fatalf("edges = %d", len(edges))
	}
	e := edges[0]
	if e.Caller != "pairalign" || e.Callee != "forward_pass" {
		t.Errorf("edge = %+v", e)
	}
	if e.Calls != 3 || e.Time != 6*time.Millisecond {
		t.Errorf("edge stats = %+v", e)
	}
}

func TestTopTruncates(t *testing.T) {
	c := &fakeClock{}
	p := NewWithClock(c.now)
	for _, name := range []string{"a", "b", "c", "d"} {
		leave := p.Enter(name)
		c.advance(time.Millisecond)
		leave()
	}
	if got := len(p.Top(2)); got != 2 {
		t.Errorf("Top(2) = %d rows", got)
	}
	if got := len(p.Top(10)); got != 4 {
		t.Errorf("Top(10) = %d rows", got)
	}
}

func TestNilProfilerIsInert(t *testing.T) {
	var p *Profiler
	leave := p.Enter("x") // must not panic
	leave()
	if p.Flat() != nil || p.CallGraph() != nil || p.TotalSelf() != 0 {
		t.Error("nil profiler should report nothing")
	}
}

func TestMismatchedLeavePanics(t *testing.T) {
	c := &fakeClock{}
	p := NewWithClock(c.now)
	leaveA := p.Enter("a")
	p.Enter("b") // not left
	defer func() {
		if recover() == nil {
			t.Error("mismatched leave did not panic")
		}
	}()
	leaveA()
}

func TestLeaveOnEmptyStackPanics(t *testing.T) {
	c := &fakeClock{}
	p := NewWithClock(c.now)
	leave := p.Enter("a")
	leave()
	defer func() {
		if recover() == nil {
			t.Error("double leave did not panic")
		}
	}()
	leave()
}

func TestWriteFlatFormat(t *testing.T) {
	c := &fakeClock{}
	p := NewWithClock(c.now)
	leave := p.Enter("pairalign")
	c.advance(90 * time.Millisecond)
	leave()
	leave = p.Enter("malign")
	c.advance(10 * time.Millisecond)
	leave()
	out := p.String()
	if !strings.Contains(out, "pairalign") || !strings.Contains(out, "% time") {
		t.Errorf("output = %q", out)
	}
	if !strings.Contains(out, "90.00%") {
		t.Errorf("percent formatting: %q", out)
	}
}

func TestWallClockProfilerMeasuresSomething(t *testing.T) {
	p := New()
	leave := p.Enter("spin")
	deadline := time.Now().Add(2 * time.Millisecond)
	x := 0
	for time.Now().Before(deadline) {
		x++
	}
	leave()
	if p.TotalSelf() <= 0 {
		t.Error("wall-clock profiler recorded nothing")
	}
	_ = x
}

func TestDeterministicTieBreak(t *testing.T) {
	c := &fakeClock{}
	p := NewWithClock(c.now)
	for _, name := range []string{"zeta", "alpha"} {
		leave := p.Enter(name)
		c.advance(time.Millisecond)
		leave()
	}
	flat := p.Flat()
	if flat[0].Name != "alpha" {
		t.Errorf("equal-time kernels should sort by name: %v", flat)
	}
}
