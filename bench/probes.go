package main

import (
	"sync"

	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
)

// The probes below sit on the seams the layers already expose — the
// simulator's sim.Scheduler, the engine's sched.Strategy and the obs
// TraceSink — so a traced round measures the unmodified program. Each
// probe forwards every call unchanged; model outputs are identical with
// and without them, which every traced round checks.

// simProbe counts and times one traced sim round. It is used from the
// simulation goroutine only (rounds run scenarios one at a time). Each
// probe call times the wrapped call alone; the probe's own bookkeeping
// happens after that, and inside a handler it is subtracted from the
// handler's time along with the handler's queue operations.
type simProbe struct {
	log *spanLog

	events, cancels    int64
	queueNs, handlerNs int64

	chooseCalls, choosePicked, options int64
	chooseNs                           int64

	// handler is the open handler span (0 when none): it opens when Pop
	// hands an event to the simulator and closes at the next Peek or Pop.
	handler      int64
	handlerStart int64
	// handlerExcl is the time inside the open handler that was queue
	// operations or probe bookkeeping.
	handlerExcl int64
}

// queue wraps a fresh default scheduler for one engine.
func (p *simProbe) queue() sim.Scheduler {
	return &probedQueue{inner: sim.NewWheelQueue(), p: p}
}

// closeHandler ends the open handler span at t.
func (p *simProbe) closeHandler(t int64) {
	if p.handler == 0 {
		return
	}
	p.log.end(p.handler, t)
	p.handlerNs += t - p.handlerStart - p.handlerExcl
	p.handler = 0
}

// account records one wrapped call of the given layer that ran from t0 to
// t1, and charges what is not handler work to the open handler's
// exclusions: the call itself when it is a queue operation, and the
// bookkeeping after t1 in any case.
func (p *simProbe) account(layer, name string, t0, t1 int64) {
	p.log.leaf(layer, name, 0, t0, t1)
	if layer == "sim" {
		p.queueNs += t1 - t0
	}
	if p.handler == 0 {
		return
	}
	if layer == "sim" {
		p.handlerExcl += t1 - t0
	}
	p.handlerExcl += p.log.now() - t1
}

type probedQueue struct {
	inner sim.Scheduler
	p     *simProbe
}

func (q *probedQueue) Push(t sim.Time, priority int, label string, fn sim.Handler) sim.EventRef {
	t0 := q.p.log.now()
	ref := q.inner.Push(t, priority, label, fn)
	q.p.account("sim", "push", t0, q.p.log.now())
	return ref
}

func (q *probedQueue) Peek() *sim.Event {
	t0 := q.p.log.now()
	q.p.closeHandler(t0)
	t0 = q.p.log.now()
	ev := q.inner.Peek()
	q.p.account("sim", "peek", t0, q.p.log.now())
	return ev
}

func (q *probedQueue) Pop() *sim.Event {
	t0 := q.p.log.now()
	q.p.closeHandler(t0)
	t0 = q.p.log.now()
	ev := q.inner.Pop()
	q.p.account("sim", "pop", t0, q.p.log.now())
	if ev != nil {
		q.p.events++
		// The label is read now: a popped event is valid only until the
		// next Pop.
		t := q.p.log.now()
		q.p.handler = q.p.log.begin("grid", ev.Label, 0, t)
		q.p.handlerStart = q.p.log.now()
		q.p.handlerExcl = 0
	}
	return ev
}

func (q *probedQueue) Cancel(ref sim.EventRef) bool {
	t0 := q.p.log.now()
	ok := q.inner.Cancel(ref)
	q.p.account("sim", "cancel", t0, q.p.log.now())
	if ok {
		q.p.cancels++
	}
	return ok
}

func (q *probedQueue) Len() int { return q.inner.Len() }

// probedStrategy times the strategy's Choose calls.
type probedStrategy struct {
	inner sched.Strategy
	p     *simProbe
}

func (s probedStrategy) Name() string { return s.inner.Name() }

func (s probedStrategy) Choose(opts []sched.Option) int {
	t0 := s.p.log.now()
	i := s.inner.Choose(opts)
	t1 := s.p.log.now()
	s.p.chooseNs += t1 - t0
	s.p.chooseCalls++
	s.p.options += int64(len(opts))
	if i >= 0 {
		s.p.choosePicked++
	}
	s.p.account("sched", "choose", t0, t1)
	return i
}

// countSink counts engine lifecycle events by kind. The control plane
// emits from every shard goroutine, so it locks.
type countSink struct {
	mu sync.Mutex
	n  map[obs.Kind]int64
}

func newCountSink() *countSink { return &countSink{n: map[obs.Kind]int64{}} }

func (c *countSink) Emit(ev obs.Event) {
	c.mu.Lock()
	c.n[ev.Kind]++
	c.mu.Unlock()
}

func (c *countSink) Sample(obs.Sample) {}
func (c *countSink) Flush() error      { return nil }
func (c *countSink) Close() error      { return nil }

// count returns the events seen of one kind.
func (c *countSink) count(k obs.Kind) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n[k]
}

// total returns the events seen of every kind.
func (c *countSink) total() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var t int64
	for _, v := range c.n {
		t += v
	}
	return t
}
