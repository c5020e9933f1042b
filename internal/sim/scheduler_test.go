package sim

import (
	"runtime"
	"testing"
	"time"
)

// schedulers enumerates every Scheduler implementation; each conformance
// subtest runs once per entry so the two queues can never drift apart on
// the contract.
func schedulers() map[string]func() Scheduler {
	return map[string]func() Scheduler{
		"heap":  func() Scheduler { return NewHeapQueue() },
		"wheel": func() Scheduler { return NewWheelQueue() },
	}
}

// TestSchedulerLenCountsLiveOnly is the regression test for the Len
// bug: canceled events must leave the count immediately, not linger
// until the sweep reclaims them.
func TestSchedulerLenCountsLiveOnly(t *testing.T) {
	for name, mk := range schedulers() {
		t.Run(name, func(t *testing.T) {
			q := mk()
			var refs []EventRef
			for i := 0; i < 5; i++ {
				refs = append(refs, q.Push(Time(i), 0, "e", func() {}))
			}
			if q.Len() != 5 {
				t.Fatalf("Len = %d after 5 pushes", q.Len())
			}
			q.Cancel(refs[1])
			q.Cancel(refs[3])
			if q.Len() != 3 {
				t.Fatalf("Len = %d after canceling 2 of 5; canceled events must not count", q.Len())
			}
			for want := 2; want >= 0; want-- {
				if e := q.Pop(); e == nil {
					t.Fatalf("Pop = nil with %d live events left", want+1)
				}
				if q.Len() != want {
					t.Fatalf("Len = %d after pop, want %d", q.Len(), want)
				}
			}
			if e := q.Pop(); e != nil {
				t.Fatalf("Pop returned %q from an empty queue", e.Label)
			}
		})
	}
}

// TestSchedulerCancelSemantics pins the Cancel contract: true exactly
// once while pending, false for repeated, fired, and zero refs, and a
// canceled event is never served.
func TestSchedulerCancelSemantics(t *testing.T) {
	for name, mk := range schedulers() {
		t.Run(name, func(t *testing.T) {
			q := mk()
			q.Push(1, 0, "keep", func() {})
			doomed := q.Push(2, 0, "doomed", func() {})
			if !doomed.Pending() {
				t.Fatal("fresh ref not pending")
			}
			if !q.Cancel(doomed) {
				t.Fatal("first Cancel = false on a pending event")
			}
			if q.Cancel(doomed) {
				t.Fatal("second Cancel = true; must be a no-op")
			}
			if doomed.Pending() {
				t.Fatal("ref still pending after Cancel")
			}
			fired := q.Pop()
			if fired == nil || fired.Label != "keep" {
				t.Fatalf("Pop = %v, want the live event", fired)
			}
			if q.Pop() != nil {
				t.Fatal("canceled event was served")
			}
			if q.Cancel(EventRef{}) {
				t.Fatal("Cancel of the zero ref = true")
			}
		})
	}
}

// TestSchedulerRefStaleAfterFire: once an event fires its ref goes
// inert — Pending false, Cancel a no-op — even though the pooled Event
// will be recycled for a future Push.
func TestSchedulerRefStaleAfterFire(t *testing.T) {
	for name, mk := range schedulers() {
		t.Run(name, func(t *testing.T) {
			q := mk()
			ref := q.Push(1, 0, "once", func() {})
			if q.Pop() == nil {
				t.Fatal("Pop = nil")
			}
			if ref.Pending() {
				t.Fatal("ref pending after its event fired")
			}
			if q.Cancel(ref) {
				t.Fatal("Cancel of a fired event = true")
			}
			// Force recycling (the fired event is reclaimed on the next
			// Pop) and reoccupy the slot: the stale ref must not be able
			// to cancel the new occupant.
			for i := 0; i < 2*poolBlock; i++ {
				q.Push(Time(i+2), 0, "fill", func() {})
			}
			live := q.Len()
			if q.Cancel(ref) {
				t.Fatal("stale ref canceled a recycled event")
			}
			if q.Len() != live {
				t.Fatalf("stale Cancel changed Len %d -> %d", live, q.Len())
			}
		})
	}
}

// schedOp is one scripted scheduler operation for the differential
// drivers: push at a (bounded) time, cancel an earlier push, or pop.
type schedOp struct {
	kind   uint8 // 0 push, 1 cancel, 2 pop
	at     Time
	prio   int
	target int // cancel: index into the pushes so far
}

// runScript drives one scheduler through a script and returns the pop
// order as (Time, Priority, Label) triples plus the Cancel results.
func runScript(q Scheduler, ops []schedOp) (pops []string, cancels []bool, lens []int) {
	var refs []EventRef
	serial := 0
	for _, op := range ops {
		switch op.kind {
		case 0:
			label := pushLabels[serial%len(pushLabels)]
			serial++
			refs = append(refs, q.Push(op.at, op.prio, label, func() {}))
		case 1:
			if len(refs) > 0 {
				cancels = append(cancels, q.Cancel(refs[op.target%len(refs)]))
			}
		case 2:
			if e := q.Pop(); e == nil {
				pops = append(pops, "<nil>")
			} else {
				pops = append(pops, e.Time.String()+"/"+itoa(e.Priority)+"/"+e.Label)
			}
		}
		lens = append(lens, q.Len())
	}
	for {
		e := q.Pop()
		if e == nil {
			break
		}
		pops = append(pops, e.Time.String()+"/"+itoa(e.Priority)+"/"+e.Label)
	}
	return pops, cancels, lens
}

var pushLabels = []string{"a", "b", "c", "d", "e", "f", "g", "h"}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// decodeOps turns fuzz bytes into an op script. Times cover the wheel's
// interesting regimes: the current tick, the ring window (< 1 s at the
// default resolution), and the overflow heap (far future).
func decodeOps(data []byte) []schedOp {
	var ops []schedOp
	for i := 0; i+3 < len(data); i += 4 {
		op := schedOp{kind: data[i] % 3}
		raw := int(data[i+1])<<8 | int(data[i+2])
		switch data[i+3] % 4 {
		case 0: // sub-tick times around zero
			op.at = Time(raw) / 65536
		case 1: // within the ring window
			op.at = Time(raw) / 256
		case 2: // spans ring and overflow
			op.at = Time(raw)
		case 3: // deep overflow
			op.at = Time(raw) * 1024
		}
		op.prio = int(data[i+1] % 3)
		op.target = raw
		ops = append(ops, op)
	}
	return ops
}

// diffSchedulers runs one script through both implementations and
// reports the first divergence, if any.
func diffSchedulers(t *testing.T, ops []schedOp) {
	t.Helper()
	hp, hc, hl := runScript(NewHeapQueue(), ops)
	wp, wc, wl := runScript(NewWheelQueue(), ops)
	if len(hp) != len(wp) {
		t.Fatalf("pop counts diverge: heap %d, wheel %d", len(hp), len(wp))
	}
	for i := range hp {
		if hp[i] != wp[i] {
			t.Fatalf("pop %d diverges: heap %s, wheel %s", i, hp[i], wp[i])
		}
	}
	if len(hc) != len(wc) {
		t.Fatalf("cancel counts diverge: heap %d, wheel %d", len(hc), len(wc))
	}
	for i := range hc {
		if hc[i] != wc[i] {
			t.Fatalf("cancel %d diverges: heap %v, wheel %v", i, hc[i], wc[i])
		}
	}
	for i := range hl {
		if hl[i] != wl[i] {
			t.Fatalf("Len after op %d diverges: heap %d, wheel %d", i, hl[i], wl[i])
		}
	}
}

// TestSchedulerDifferentialRandomized feeds identical randomized
// Push/Cancel/Pop interleavings to both schedulers and requires
// identical pop order, cancel outcomes, and live counts throughout.
func TestSchedulerDifferentialRandomized(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		r := NewRNG(seed)
		n := 4 + r.Intn(400)
		data := make([]byte, 4*n)
		for i := range data {
			data[i] = byte(r.Intn(256))
		}
		diffSchedulers(t, decodeOps(data))
	}
}

// FuzzSchedulerDifferential is the open-ended form of the randomized
// differential: any byte string decodes to an op script, and the two
// schedulers must stay in lockstep on it.
func FuzzSchedulerDifferential(f *testing.F) {
	// Seed corpus: a push/pop mix in each time regime, a cancel-heavy
	// script, and a same-timestamp burst.
	f.Add([]byte{0, 1, 0, 0, 0, 2, 0, 1, 2, 0, 0, 0, 0, 3, 0, 2, 2, 0, 0, 0})
	f.Add([]byte{0, 0, 10, 3, 0, 0, 10, 3, 0, 0, 10, 3, 2, 0, 0, 0, 2, 0, 0, 0})
	f.Add([]byte{0, 1, 1, 1, 1, 0, 0, 0, 1, 0, 1, 0, 0, 2, 2, 2, 1, 0, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return // bound script length; long scripts add time, not coverage
		}
		diffSchedulers(t, decodeOps(data))
	})
}

// TestDrainLoopZeroAllocs is the tentpole's zero-alloc claim as a test:
// once the pool is warm, a steady-state schedule→fire→reschedule loop
// allocates nothing, on either scheduler.
func TestDrainLoopZeroAllocs(t *testing.T) {
	for name, mk := range schedulers() {
		t.Run(name, func(t *testing.T) {
			s := NewSimulator(WithScheduler(mk()))
			// Steady-state model: each firing reschedules itself a few
			// times, so Push always reuses a recycled Event.
			var tick func()
			hops := 0
			tick = func() {
				if hops > 0 {
					hops--
					s.After(0.25, "tick", tick)
				}
			}
			// Warm the pool and the wheel's batch buffers.
			hops = 64
			s.After(0.25, "tick", tick)
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			avg := testing.AllocsPerRun(50, func() {
				hops = 16
				s.After(0.25, "tick", tick)
				if err := s.Run(); err != nil {
					t.Fatal(err)
				}
			})
			if avg > 0.5 {
				t.Errorf("drain loop allocates %.2f allocs/run, want ~0", avg)
			}
		})
	}
}

// TestDrainedSimulatorReleasesLastHandler pins that a drained simulator
// keeps nothing its last handler captured: the fired event waits in the
// scheduler's fired slot until the next Pop, so Step must drop the
// handler before running it. An idle control-plane tenant would
// otherwise keep its last task's completion closure alive.
func TestDrainedSimulatorReleasesLastHandler(t *testing.T) {
	for name, mk := range schedulers() {
		t.Run(name, func(t *testing.T) {
			s := NewSimulator(WithScheduler(mk()))
			collected := make(chan struct{})
			func() {
				captured := new([64]byte)
				runtime.SetFinalizer(captured, func(*[64]byte) { close(collected) })
				s.After(1, "last", func() { captured[0]++ })
			}()
			if err := s.Run(); err != nil {
				t.Fatal(err)
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
			t.Fatal("the drained simulator still reaches its last handler's captures")
		})
	}
}

// freeLen counts the events on a pool's free list.
func freeLen(p *eventPool) int {
	n := 0
	for e := p.free; e != nil; e = e.next {
		n++
	}
	return n
}

// TestPoolGrowsGeometrically pins the refill sizes: the first refill
// allocates poolFirstBlock events, each later one doubles up to
// poolBlock, and from there every refill is poolBlock.
func TestPoolGrowsGeometrically(t *testing.T) {
	var p eventPool
	for i, want := range []int{4, 8, 16, 32, 64, 64, 64} {
		p.alloc()
		if got := freeLen(&p) + 1; got != want {
			t.Fatalf("refill %d allocated %d events, want %d", i, got, want)
		}
		for p.free != nil {
			p.alloc()
		}
	}
}

// TestSmallSchedulerOneSmallBlock: a fresh HeapQueue that never holds
// more than poolFirstBlock events pending — a control-plane tenant's
// simulator — allocates one block of poolFirstBlock events, however many
// events it schedules over its life.
func TestSmallSchedulerOneSmallBlock(t *testing.T) {
	q := NewHeapQueue()
	for round := 0; round < 100; round++ {
		for i := 0; i < poolFirstBlock; i++ {
			q.Push(Time(round), i, "e", func() {})
		}
		for q.Pop() != nil {
		}
	}
	owned := freeLen(&q.pool) + len(q.h)
	if q.fired != nil {
		owned++
	}
	if q.pool.block != poolFirstBlock || owned != poolFirstBlock {
		t.Fatalf("pool holds %d events (last block %d), want one block of %d", owned, q.pool.block, poolFirstBlock)
	}
}
