package sim

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// checkpoint is what a stop leaves observable: the items executed so far
// (with their handler-side IDs and times), the pending count and the
// clock.
type checkpoint struct {
	Order   []string
	Pending int
	Now     Time
}

// Stop modes for runStreamProgram.
const (
	stopRun = iota
	stopHorizon
	stopModes
)

// runStreamProgram draws a random program from seed and runs it on a
// fresh simulator over q. The program mixes Schedule calls at integer
// times (so ties are common), Cancel calls, and Stream calls, both
// before the run and from handlers; handlers may also schedule at Now.
// With expand set, every Stream call is replaced by one Schedule call
// per item, in index order, at the point of the call. Every random draw
// happens in the same place in both forms, so the two runs stay in step
// for as long as they execute the same items. stop selects how the run
// ends: Run, or Run under a Horizon and then Run without one; a
// checkpoint is taken after each call.
func runStreamProgram(seed uint64, q Scheduler, expand bool, stop int) []checkpoint {
	r := NewRNG(seed)
	s := NewSimulator(WithScheduler(q))
	var cp checkpoint
	var refs []EventRef
	events, streams := 0, 0

	var handle func(id string, depth int)
	schedule := func(t Time, depth int) {
		id := fmt.Sprintf("e%d", events)
		events++
		refs = append(refs, s.Schedule(t, "e", func() { handle(id, depth) }))
	}
	stream := func(from Time, depth int) {
		name := fmt.Sprintf("s%d", streams)
		streams++
		n := 1 + r.Intn(6)
		times := make([]Time, n)
		t := from + Time(r.Intn(4))
		for i := range times {
			times[i] = t
			t += Time(r.Intn(2))
		}
		item := func(i int) { handle(fmt.Sprintf("%s.%d", name, i), depth) }
		if !expand {
			s.Stream(n, name, func(i int) Time { return times[i] }, item)
			return
		}
		for i := range times {
			s.Schedule(times[i], name, func() { item(i) })
		}
	}
	cancel := func() {
		if len(refs) > 0 {
			s.Cancel(refs[r.Intn(len(refs))])
		}
	}
	handle = func(id string, depth int) {
		cp.Order = append(cp.Order, fmt.Sprintf("%s@%v", id, s.Now()))
		if depth >= 3 {
			return
		}
		switch r.Intn(8) {
		case 0:
			schedule(s.Now(), depth+1)
		case 1:
			schedule(s.Now()+Time(r.Intn(3)), depth+1)
		case 2:
			cancel()
		case 3:
			stream(s.Now(), depth+1)
		}
	}

	for ops := 4 + r.Intn(20); ops > 0; ops-- {
		switch k := r.Intn(10); {
		case k < 5:
			schedule(Time(r.Intn(8)), 0)
		case k < 8:
			stream(0, 0)
		default:
			cancel()
		}
	}
	at := Time(r.Intn(10))
	var cps []checkpoint
	take := func(err error) {
		if err != nil {
			cp.Order = append(cp.Order, "error: "+err.Error())
		}
		cp.Pending, cp.Now = s.Pending(), s.Now()
		cps = append(cps, cp)
		cp.Order = nil
	}
	if stop == stopHorizon {
		s.Horizon = at + 1
		take(s.Run())
		s.Horizon = 0
	}
	take(s.Run())
	return cps
}

// TestStreamMatchesScheduleCalls is the ordering contract of Stream as a
// property: a random program runs identically with each Stream call
// replaced by index-ordered Schedule calls made where the Stream call
// was. Handler order, Pending and the clock must match at every stop,
// under both schedulers and both stop modes.
func TestStreamMatchesScheduleCalls(t *testing.T) {
	seeds := uint64(1000)
	if testing.Short() {
		seeds = 200
	}
	for name, mk := range schedulers() {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(0); seed < seeds; seed++ {
				for stop := 0; stop < stopModes; stop++ {
					got := runStreamProgram(seed, mk(), false, stop)
					want := runStreamProgram(seed, mk(), true, stop)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d, stop mode %d: streamed program diverges from scheduled one\nstreamed:  %+v\nscheduled: %+v", seed, stop, got, want)
					}
				}
			}
		})
	}
}

// TestStreamTieRule pins the tie rule on one hand-written program: at
// equal times, a stream's items run after events queued before the
// Stream call and before those pushed after it; a second stream
// attached with nothing pushed in between follows the first.
func TestStreamTieRule(t *testing.T) {
	for name, mk := range schedulers() {
		t.Run(name, func(t *testing.T) {
			s := NewSimulator(WithScheduler(mk()))
			var order []string
			ev := func(label string) Handler { return func() { order = append(order, label) } }
			s.Schedule(1, "before", ev("before"))
			s.Stream(2, "a", func(int) Time { return 1 }, func(i int) { order = append(order, fmt.Sprint("a", i)) })
			s.Stream(1, "b", func(int) Time { return 1 }, func(int) { order = append(order, "b0") })
			s.Schedule(1, "after", ev("after"))
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			want := "before a0 a1 b0 after"
			if got := strings.Join(order, " "); got != want {
				t.Errorf("order %q, want %q", got, want)
			}
			if s.Pending() != 0 {
				t.Errorf("Pending %d, want 0", s.Pending())
			}
		})
	}
}

// TestStreamRejectsUnorderedTimes: Stream checks every item when it is
// called, as Schedule checks its time, and panics on an item before Now,
// a time that decreases, or NaN.
func TestStreamRejectsUnorderedTimes(t *testing.T) {
	for name, times := range map[string][]Time{
		"before-now": {1, 2},
		"decreasing": {3, 4, 3},
		"nan":        {3, Time(math.NaN())},
	} {
		t.Run(name, func(t *testing.T) {
			s := NewSimulator()
			s.Schedule(2, "tick", func() {})
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			defer func() {
				if recover() == nil {
					t.Error("Stream accepted the times")
				}
				if s.Pending() != 0 {
					t.Errorf("a rejected stream left %d items pending", s.Pending())
				}
			}()
			s.Stream(len(times), "x", func(i int) Time { return times[i] }, func(int) {})
		})
	}
}

// TestExhaustedStreamReleasesClosures: once a stream's last item fires,
// the simulator holds neither its fire closure nor what it captured.
func TestExhaustedStreamReleasesClosures(t *testing.T) {
	for name, mk := range schedulers() {
		t.Run(name, func(t *testing.T) {
			s := NewSimulator(WithScheduler(mk()))
			collected := make(chan struct{})
			func() {
				captured := new([64]byte)
				runtime.SetFinalizer(captured, func(*[64]byte) { close(collected) })
				s.Stream(3, "items", func(i int) Time { return Time(i) }, func(i int) { captured[i]++ })
			}()
			s.Schedule(10, "later", func() {})
			s.Horizon = 5
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if s.Pending() != 1 {
				t.Fatalf("Pending = %d after the stream ran out, want 1", s.Pending())
			}
			for i := 0; i < 100; i++ {
				runtime.GC()
				select {
				case <-collected:
					runtime.KeepAlive(s)
					return
				case <-time.After(time.Millisecond):
				}
			}
			runtime.KeepAlive(s)
			t.Fatal("the simulator still reaches an exhausted stream's captures")
		})
	}
}
