package grid

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"

	"repro/internal/capability"
	"repro/internal/faults"
	"repro/internal/hdl"
	"repro/internal/jss"
	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/pe"
	"repro/internal/rms"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/task"
)

// Config parameterizes one simulation run.
type Config struct {
	// Strategy is the RMS scheduling strategy under test.
	Strategy sched.Strategy
	// Queue orders waiting tasks.
	Queue sched.QueuePolicy
	// Topology, when non-nil, gives per-node links (heterogeneous
	// connectivity); nil links every node over defaultLink.
	Topology *network.Topology
	// Horizon optionally bounds simulated time (0 = run to completion).
	Horizon sim.Time
	// Tracer, when non-nil, receives per-task lifecycle events (and gauge
	// samples when SampleEverySeconds is set). Any obs.TraceSink works:
	// the in-memory obs.Recorder, the streaming obs.CSV/obs.Chrome sinks,
	// an obs.Timeline, or an obs.Multi fan-out. Events are emitted on the
	// simulator goroutine in virtual-time order; the engine never flushes
	// or closes the sink — its creator owns that.
	Tracer obs.TraceSink
	// SampleEverySeconds, when positive, makes the engine snapshot its
	// gauges (queue depth, per-kind utilization, fabric occupancy,
	// outages, energy) into the Tracer's Sample method every interval of
	// virtual time. The sampler rides the event queue and stops when the
	// simulation drains; a final sample lands at end-of-run. Sampling
	// reads engine state but never mutates it, so enabling it cannot
	// change metrics or traces.
	SampleEverySeconds float64
	// Faults carries the active fault policy (retry bounds, lease TTL)
	// for engines driven with InjectFaults; nil disables lease
	// monitoring and gives aborted tasks unlimited immediate retries.
	// RunScenario populates it from ScenarioSpec.Faults. The spec is
	// read-only once the engine runs.
	Faults *faults.Spec
	// Scheduler, when non-nil, constructs the simulator's pending-event
	// set (one call per engine, so sweep replicas never share one). Nil
	// uses the sim package default (the binary heap). Any conforming
	// sim.Scheduler yields bit-identical runs; this is a performance
	// knob and the seam the heap-vs-wheel differential tests swap.
	Scheduler func() sim.Scheduler
}

// defaultLink is the network link between the JSS and every node when
// Config.Topology is nil: a gigabit link that input data and
// configuration bitstreams both cross ("the time required to send
// configuration bitstreams").
var defaultLink = network.Link{BandwidthMBps: 125, LatencySeconds: 0.002}

// DefaultConfig uses the reconfiguration-aware strategy.
func DefaultConfig() Config {
	return Config{Strategy: sched.ReconfigAware{}, Queue: sched.FCFS}
}

// Validate reports impossible configurations.
func (c Config) Validate() error {
	if c.Strategy == nil {
		return fmt.Errorf("grid: config without a strategy")
	}
	if c.SampleEverySeconds < 0 {
		return fmt.Errorf("grid: negative sampling interval")
	}
	return nil
}

// item is the engine's one record of a task, from its arrival until it
// settles. rec is its task tuple: a workload task's trace record, or the
// record enqueue builds for a ready task of the Submit application sub.
// A settled record goes to the engine's free list and the next arrival
// reuses it (see newItem), so a warm engine allocates no record, lease or
// completion handler per task.
type item struct {
	rec *Generated
	sub *jss.Submission
	// tid is the task ID interned once at enqueue; every later trace of
	// this task passes the handle instead of re-hashing the string.
	// Untraced engines leave it zero.
	tid obs.Name
	enq sim.Time
	seq int
	// attempts counts fault-induced aborts so far; lastFail stamps the
	// most recent one (the MTTR clock).
	attempts int
	lastFail sim.Time
	// The current placement, set by dispatchOne and execute: lease holds
	// the candidate it runs on and the estimator whose kind prices it;
	// exec is the pure execution time and span the full charged timeline
	// (transfer + synthesis + reconfiguration + execution). ev is the
	// completion and renew the pending lease-renewal check, both
	// cancelled when the placement completes or aborts. They are refs,
	// not pointers: events are pooled, and a ref that outlives its event
	// (a crash cancels the completion, then a lease expiry tries again)
	// degrades to a harmless no-op instead of touching a recycled event.
	lease rms.Lease
	exec  float64
	span  float64
	ev    sim.EventRef
	renew sim.EventRef
	// done is the completion handler, built once with the record; check
	// the lease-renewal check and retry the end of a retry backoff, each
	// built at the record's first use of it. All three are kept when the
	// record is recycled.
	done, check, retry sim.Handler
	// blocked is the engine's epoch when this task's placement last
	// failed; tryDispatch skips the task until the epoch moves on.
	blocked uint64
	// next links the record into the engine's free list once it settles.
	next *item
}

// Engine drives the simulation: submissions arrive, the scheduler places
// tasks on elements via the matchmaker, reconfigurations and transfers are
// charged, and metrics accumulate.
type Engine struct {
	cfg Config
	S   *sim.Simulator
	Reg *rms.Registry
	MM  *rms.Matchmaker
	J   *jss.JSS

	queue []*item
	// queueDirty marks the waiting queue out of policy order. FCFS appends
	// of fresh items (monotone seq) keep the queue sorted, so the common
	// dispatch path skips sorting entirely; SJF appends and retry re-queues
	// (stale seq) mark it dirty and the next orderQueue re-sorts once.
	queueDirty bool
	seq        int
	// epoch counts the events that can grow capacity or a task's option
	// set: a lease released, a node recovered or detached, a partition
	// healed or replaced by a slowdown, an idle region evicted. A
	// placement that failed fails
	// again, with no side effect, until one of them happens, because
	// Strategy.Choose is a pure function of its options; so tryDispatch
	// skips a task whose item.blocked equals epoch. It starts at 1, so a
	// zero stamp marks a task that never failed to place.
	epoch uint64
	// optsBuf is the scratch option slice dispatchOne reuses across calls,
	// so candidate evaluation allocates nothing in steady state.
	optsBuf []sched.Option
	m       *Metrics
	// running tracks the tasks in flight per element, for failure
	// injection and the gauge sampler. It is made at its first write;
	// reads, len and delete work on a nil map.
	running map[*node.Element][]*item
	// free heads the list of settled records that newItem hands out
	// again. It holds as many records as the run's peak of queued,
	// backing-off and running tasks.
	free *item
	// lastReal is the virtual time of the last traced (model) event; the
	// end-of-run metrics window clamps to it when sampling is enabled so
	// a trailing sampler tick cannot widen WindowSeconds/Availability.
	lastReal sim.Time
	// nodeNames/elemNames cache the interned obs handle per live object,
	// so tracing an event hashes a pointer, not an ID string; an untraced
	// engine has neither.
	nodeNames map[*node.Node]obs.Name
	elemNames map[*node.Element]obs.Name
	// flt is the fault-injection state, made at the first fault that
	// writes it (see faultState).
	flt *faultState
}

// NewEngine wires a simulator around an existing registry and matchmaker.
func NewEngine(cfg Config, reg *rms.Registry, mm *rms.Matchmaker) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if reg == nil || mm == nil {
		return nil, fmt.Errorf("grid: engine needs a registry and matchmaker")
	}
	var simOpts []sim.Option
	if cfg.Scheduler != nil {
		simOpts = append(simOpts, sim.WithScheduler(cfg.Scheduler()))
	}
	e := &Engine{
		cfg: cfg,
		S:   sim.NewSimulator(simOpts...),
		Reg: reg,
		MM:  mm,
		J:   jss.New(),
		m:   newMetrics(cfg.Strategy.Name()),
		// epoch starts at 1: see the field.
		epoch: 1,
	}
	if cfg.Tracer != nil {
		e.nodeNames = make(map[*node.Node]obs.Name)
		e.elemNames = make(map[*node.Element]obs.Name)
	}
	return e, nil
}

// Submit schedules an application submission at a virtual time. Program
// may be nil to execute by graph dependencies (Fig. 7 mode); otherwise the
// Seq/Par plan drives dispatch (Fig. 8 mode). The submission stays
// queryable through the JSS after it settles.
func (e *Engine) Submit(at sim.Time, user string, g *task.Graph, prog *task.Program, qos jss.QoS) {
	e.S.Schedule(at, "submit", func() { e.admit(user, g, prog, qos) })
}

// SubmitWorkload schedules a many-task workload: each record is an
// independent task that arrives at its time (DReAMSim's independent-task
// model) and is queued straight from the record; workload tasks bypass
// the JSS, which serves Submit applications. Every record is checked
// here, before the run, as task.ValidateForGraph checks a task, and a
// streaming design is refused as the JSS refuses one. The metrics' Wait
// and Turnaround series are reserved for the trace's length, so they do
// not regrow while it runs. The trace is then streamed into the
// simulator in (Arrival, index) order (see stream).
// Queued and running tasks point into gen and the requirements its
// records share, so the caller must modify neither until Run returns.
func (e *Engine) SubmitWorkload(gen []Generated) error {
	designs := map[string]*hdl.Design{}
	for i := range gen {
		g := &gen[i]
		t := g.tuple()
		if err := task.ValidateForGraph(&t); err != nil {
			return err
		}
		if d := g.ExecReq.Design; d != nil && d.Streaming {
			return fmt.Errorf("grid: task %d (%s): design %s is streaming; streaming applications are future work", i, g.ID, d.Name)
		}
		if a := float64(g.Arrival); math.IsNaN(a) || math.IsInf(a, 0) {
			return fmt.Errorf("grid: task %d (%s): arrival %v is not finite", i, g.ID, a)
		}
		if g.Arrival < e.S.Now() {
			return fmt.Errorf("grid: task %d (%s): arrival %v before now %v", i, g.ID, g.Arrival, e.S.Now())
		}
		addDesign(designs, g.ExecReq)
	}
	e.m.Wait.Reserve(len(gen))
	e.m.Turnaround.Reserve(len(gen))
	e.prewarm(designs)
	e.stream(len(gen), "submit", func(i int) sim.Time { return gen[i].Arrival }, func(i int) {
		e.queueItem(&gen[i], nil)
	})
	return nil
}

// stream feeds a timeline of n items into the simulator, item i firing
// fire(i) at at(i), in (time, index) order: the order n Schedule calls
// made now would give, so items tie with other events in schedule
// order. A sorted timeline goes to the simulator as it is; an unsorted
// one through a stable permutation. No item is queued as an event.
func (e *Engine) stream(n int, label string, at func(i int) sim.Time, fire func(i int)) {
	sorted := true
	for i := 1; i < n && sorted; i++ {
		sorted = at(i-1) <= at(i)
	}
	if !sorted {
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(at(a), at(b)) })
		atIdx, fireIdx := at, fire
		at = func(i int) sim.Time { return atIdx(order[i]) }
		fire = func(i int) { fireIdx(order[i]) }
	}
	e.S.Stream(n, label, at, fire)
}

// admit hands one submission to the JSS, starts it and queues the tasks
// that are ready, in the order the JSS gives them.
func (e *Engine) admit(user string, g *task.Graph, prog *task.Program, qos jss.QoS) {
	sub, err := e.J.Submit(user, g, prog, qos, e.S.Now())
	if err != nil {
		return // rejected; the JSS records the reason
	}
	for _, id := range e.J.Start(sub) {
		e.enqueue(sub, id)
	}
}

// addDesign adds the HDL design a task's requirement names, if any, to
// the set prewarm fills the library for.
func addDesign(designs map[string]*hdl.Design, req *task.ExecReq) {
	if d := req.Design; d != nil {
		designs[d.Name] = d
	}
}

// prewarm fills the provider's bitstream library for every design the
// workload references, on every distinct RPE device in the grid: the
// provider keeps a ready library for the workload's IP designs (the
// paper's OpenCores scenario), so CAD time is paid offline, not on the
// task critical path.
func (e *Engine) prewarm(designs map[string]*hdl.Design) {
	if len(designs) == 0 {
		return
	}
	seenDev := map[string]bool{}
	for _, n := range e.Reg.Nodes() {
		for _, el := range n.RPEs() {
			dev := el.Fabric.Device()
			if seenDev[dev.FPGACaps.Device] {
				continue
			}
			seenDev[dev.FPGACaps.Device] = true
			for _, d := range designs {
				// Skip incompatible pairs; the matchmaker will simply not
				// offer them.
				if err := e.MM.PrewarmSynthesis(d, dev); err != nil {
					continue
				}
			}
		}
	}
}

// link is the placement step's view of the network: the link to a node
// with any active link fault applied (a degraded link divides bandwidth
// and multiplies latency by the fault's factor), and false when the node
// cannot be talked to: crashed, or cut off by a partition. Matchmaking
// skips unreachable nodes (degraded-mode scheduling: strategies see a
// shrunken option set) and lease renewals against them fail.
func (e *Engine) link(nodeID string) (network.Link, bool) {
	l := defaultLink
	if e.cfg.Topology != nil {
		l = e.cfg.Topology.LinkTo(nodeID)
	}
	if e.flt == nil {
		return l, true
	}
	f, faulty := e.flt.linkFault[nodeID]
	if _, down := e.flt.down[nodeID]; down || faulty && f.Partition {
		return l, false
	}
	if faulty && f.Factor > 1 {
		l.BandwidthMBps /= f.Factor
		l.LatencySeconds *= f.Factor
	}
	return l, true
}

// enqueue queues a ready task of a submission from a record built for
// it, whose Work.DataMB is the input volume the node's link carries.
func (e *Engine) enqueue(sub *jss.Submission, id string) {
	t, _ := sub.Graph.Get(id)
	e.J.Notify(sub, e.S.Now(), id, "queued")
	rec := &Generated{ID: id, ExecReq: &t.ExecReq, EstimatedSeconds: t.EstimatedSeconds, Work: t.Work}
	rec.Work.DataMB = t.InputMB()
	e.queueItem(rec, sub)
}

// queueItem queues a newly arrived task, in a record from newItem, and
// dispatches what fits.
func (e *Engine) queueItem(rec *Generated, sub *jss.Submission) {
	it := e.newItem()
	e.seq++
	e.m.Submitted++
	it.rec, it.sub = rec, sub
	it.tid, it.enq, it.seq = e.name(rec.ID), e.S.Now(), e.seq
	e.pushQueue(it, true)
	e.trace(obs.Event{Time: e.S.Now(), Kind: obs.KindQueued, TaskID: it.tid})
	e.tryDispatch()
}

// newItem hands out a zeroed record: the head of the free list, or a new
// one with its completion handler when the list is empty.
func (e *Engine) newItem() *item {
	if it := e.free; it != nil {
		e.free, it.next = it.next, nil
		return it
	}
	it := &item{}
	it.done = func() { e.complete(it) }
	return it
}

// recycle puts a settled record on the free list, zeroed but for its
// handlers, so it pins no trace record, submission or region
// and the task it next holds starts with no attempts, stamp or events.
// Only a record no event can still fire for comes here: after complete,
// or once requeueOrLose has declared its task lost; never one that is
// queued, backing off or running.
func (e *Engine) recycle(it *item) {
	*it = item{done: it.done, check: it.check, retry: it.retry, next: e.free}
	e.free = it
}

// pushQueue appends a waiting item. fresh means the item carries the
// current maximal seq (a first enqueue, not a retry), in which case an
// FCFS queue stays sorted and no dirty mark is needed.
func (e *Engine) pushQueue(it *item, fresh bool) {
	if e.cfg.Queue == sched.SJF || !fresh {
		e.queueDirty = true
	}
	e.queue = append(e.queue, it)
}

// orderQueue sorts the waiting items per the queue policy, if anything
// disturbed the order since the last sort.
func (e *Engine) orderQueue() {
	if !e.queueDirty {
		return
	}
	e.queueDirty = false
	switch e.cfg.Queue {
	case sched.SJF:
		slices.SortStableFunc(e.queue, func(a, b *item) int {
			switch {
			case a.rec.EstimatedSeconds < b.rec.EstimatedSeconds:
				return -1
			case a.rec.EstimatedSeconds > b.rec.EstimatedSeconds:
				return 1
			case a.seq < b.seq:
				return -1
			case a.seq > b.seq:
				return 1
			}
			return 0
		})
	default: // FCFS
		slices.SortStableFunc(e.queue, func(a, b *item) int {
			switch {
			case a.seq < b.seq:
				return -1
			case a.seq > b.seq:
				return 1
			}
			return 0
		})
	}
}

// tryDispatch greedily places queued tasks until no further placement
// succeeds (FCFS order with backfill: a blocked head does not stall
// runnable tasks behind it). A task whose placement failed is skipped
// until the epoch moves, since until then it would fail again.
func (e *Engine) tryDispatch() {
	for {
		e.orderQueue()
		dispatched := false
		for i := 0; i < len(e.queue); i++ {
			it := e.queue[i]
			if it.blocked == e.epoch {
				continue
			}
			if e.dispatchOne(it) {
				e.queue = append(e.queue[:i], e.queue[i+1:]...)
				dispatched = true
				break
			}
			it.blocked = e.epoch
		}
		if !dispatched {
			return
		}
	}
}

// dispatchOne attempts to place one task through the placement step,
// with the strategy choosing; true on success.
func (e *Engine) dispatchOne(it *item) bool {
	p, ok := sched.Place(e.MM, it.rec.ExecReq, it.rec.Work, e.link, e.cfg.Strategy.Choose, &e.optsBuf)
	if ok {
		e.execute(it, &p)
	}
	return ok
}

// execute charges the timeline of placement p and schedules completion.
func (e *Engine) execute(it *item, p *sched.Placement) {
	it.lease, it.exec, it.span = p.Lease, p.ExecSeconds, p.SpanSeconds
	lease := &it.lease
	now := e.S.Now()
	wait := float64(now - it.enq)
	e.m.Wait.Observe(wait)

	cand := lease.Cand
	if lease.ReconfigDelay > 0 {
		e.m.Reconfigs++
		e.m.ReconfigSeconds += float64(lease.ReconfigDelay)
		e.m.BitstreamMB += lease.BitstreamMB
	} else if cand.Elem.Fabric != nil {
		e.m.Reuses++
	}
	if lease.CompactionMoves > 0 {
		e.m.Compactions += lease.CompactionMoves
		e.m.CompactionSeconds += float64(lease.CompactionDelay)
	}
	if cand.Fallback {
		e.m.Fallbacks++
	}
	e.m.SynthesisSeconds += lease.SynthesisSeconds

	if it.sub != nil && it.sub.QoS.Monitor {
		// Gate before Notify: the label string is only built when the
		// user actually subscribed to progress events.
		e.J.Notify(it.sub, now, it.rec.ID, "dispatched to "+cand.Label())
	}

	elem := cand.Elem
	if e.running == nil {
		e.running = make(map[*node.Element][]*item)
	}
	e.running[elem] = append(e.running[elem], it)
	e.trace(obs.Event{
		Time: now, Kind: obs.KindDispatch, TaskID: it.tid,
		Node: e.nodeName(cand.Node), Element: e.elemName(elem),
	})
	if lease.ReconfigDelay > 0 {
		e.trace(obs.Event{
			Time: now, Kind: obs.KindReconfig, TaskID: it.tid,
			Node: e.nodeName(cand.Node), Element: e.elemName(elem),
		})
	}
	e.superviseLease(it)
	it.ev = e.S.After(sim.Time(it.span), "complete", it.done)
}

// complete is the completion handler for one placement: settle the
// lease, fold the timeline into the metrics, for a Submit task report
// to the JSS and queue whatever the finished task was blocking, and
// recycle the record.
func (e *Engine) complete(it *item) {
	lease := &it.lease
	elem := lease.Cand.Elem
	end := e.S.Now()
	e.S.Cancel(it.renew)
	e.dropRunning(elem, it)
	if err := lease.Release(); err != nil {
		panic(fmt.Sprintf("grid: release failed: %v", err))
	}
	e.epoch++
	e.m.Completed++
	e.m.Turnaround.Observe(float64(end - it.enq))
	if it.attempts > 0 {
		e.m.MTTR.Observe(float64(end - it.lastFail))
	}
	e.m.busySeconds[elem.Kind] += it.span
	e.m.Energy.ChargeActive(elem.Kind, it.span)
	if end > e.m.Makespan {
		e.m.Makespan = end
	}
	e.trace(obs.Event{
		Time: end, Kind: obs.KindComplete, TaskID: it.tid,
		Node: e.nodeName(lease.Cand.Node), Element: e.elemName(elem),
	})
	if sub := it.sub; sub != nil {
		e.J.Charge(sub, it.exec, lease.Estimator.Kind())
		e.J.Notify(sub, end, it.rec.ID, "completed")
		e.J.TaskDone(sub, it.rec.ID, end, func(id string) { e.enqueue(sub, id) })
	}
	e.recycle(it)
	e.tryDispatch()
}

// dropRunning removes one task from an element's running list.
func (e *Engine) dropRunning(elem *node.Element, it *item) {
	list := e.running[elem]
	for i, cur := range list {
		if cur == it {
			e.running[elem] = append(list[:i], list[i+1:]...)
			break
		}
	}
	// Keep the empty entry: every reader checks len, and retaining the
	// backing array means the next dispatch to this element appends
	// without reallocating.
}

// trace forwards one event to the configured sink, if any.
func (e *Engine) trace(ev obs.Event) {
	if ev.Time > e.lastReal {
		e.lastReal = ev.Time
	}
	if e.cfg.Tracer != nil {
		e.cfg.Tracer.Emit(ev)
	}
}

// name interns an identifier for trace events. An untraced engine
// interns nothing: the process-wide intern table never shrinks, and
// without a sink no event needs the handle.
func (e *Engine) name(s string) obs.Name {
	if e.cfg.Tracer == nil {
		return 0
	}
	return obs.Str(s)
}

// nodeName returns the node's interned trace handle, caching per object.
func (e *Engine) nodeName(n *node.Node) obs.Name {
	if e.cfg.Tracer == nil {
		return 0
	}
	if nm, ok := e.nodeNames[n]; ok {
		return nm
	}
	nm := obs.Str(n.ID)
	e.nodeNames[n] = nm
	return nm
}

// elemName returns the element's interned trace handle, caching per object.
func (e *Engine) elemName(el *node.Element) obs.Name {
	if e.cfg.Tracer == nil {
		return 0
	}
	if nm, ok := e.elemNames[el]; ok {
		return nm
	}
	nm := obs.Str(el.ID)
	e.elemNames[el] = nm
	return nm
}

// samplingEnabled reports whether the periodic gauge sampler runs.
func (e *Engine) samplingEnabled() bool {
	return e.cfg.Tracer != nil && e.cfg.SampleEverySeconds > 0
}

// startSampler schedules the recurring gauge snapshot: one sample now,
// then one every SampleEverySeconds while other events remain — the
// sampler never keeps the simulation alive on its own, so the event loop
// still drains.
func (e *Engine) startSampler() {
	dt := sim.Time(e.cfg.SampleEverySeconds)
	var tick func()
	tick = func() {
		e.emitSample()
		if e.S.Pending() > 0 {
			e.S.After(dt, "obs-sample", tick)
		}
	}
	e.S.Schedule(e.S.Now(), "obs-sample", tick)
}

// emitSample snapshots the engine's gauges into one obs.Sample. It walks
// the registry in registration order (deterministic) and reads only —
// sampling cannot perturb the run.
func (e *Engine) emitSample() {
	s := obs.Sample{
		Time:         e.S.Now(),
		QueueDepth:   len(e.queue),
		RetryBacklog: len(e.flt.retries()),
		NodesDown:    e.flt.nodesDown(),
		Completed:    e.m.Completed,
		EnergyJoules: e.m.Energy.TotalJoules(),
	}
	// Every element running a task is registered: a crashed or detaching
	// node stays in the registry while it is busy.
	var unitsGPP, unitsFPGA, unitsGPU int
	for _, n := range e.Reg.Nodes() {
		for _, el := range n.Elements() {
			running := len(e.running[el])
			switch el.Kind {
			case capability.KindGPP:
				u := 1
				if el.GPP != nil {
					u = el.GPP.Caps.Cores
				}
				unitsGPP += u
				s.RunningGPP += running
			case capability.KindFPGA:
				unitsFPGA++
				s.RunningFPGA += running
				if el.Fabric != nil {
					st := el.Fabric.State()
					s.FabricSlicesTotal += st.TotalSlices
					s.FabricSlicesUsed += st.TotalSlices - st.AvailableSlices
					s.FabricRegions += len(st.Configurations)
				}
			case capability.KindGPU:
				unitsGPU++
				s.RunningGPU += running
			}
		}
	}
	s.Running = s.RunningGPP + s.RunningFPGA + s.RunningGPU
	s.UtilGPP = unitRatio(s.RunningGPP, unitsGPP)
	s.UtilFPGA = unitRatio(s.RunningFPGA, unitsFPGA)
	s.UtilGPU = unitRatio(s.RunningGPU, unitsGPU)
	e.cfg.Tracer.Sample(s)
}

// unitRatio divides occupancy by capacity, 0 when capacity is absent.
func unitRatio(busy, units int) float64 {
	if units <= 0 {
		return 0
	}
	return float64(busy) / float64(units)
}

// abortExecution tears a task's placement down: its completion and
// renewal events are cancelled, the lease released, and the region it
// configured evicted — a failed or power-cycled fabric cannot be trusted
// to hold a valid configuration, so no stale reuse happens.
func (e *Engine) abortExecution(it *item) {
	e.S.Cancel(it.ev)
	e.S.Cancel(it.renew)
	elem := it.lease.Cand.Elem
	e.dropRunning(elem, it)
	if err := it.lease.Release(); err != nil {
		panic(fmt.Sprintf("grid: failure release: %v", err))
	}
	if it.lease.Region != nil && elem.Fabric != nil {
		_ = elem.Fabric.Evict(it.lease.Region)
	}
	e.epoch++
	it.lastFail = e.S.Now()
}

// failExecution aborts a task's placement and routes the task through
// the retry policy.
func (e *Engine) failExecution(it *item, nodeID, elemID string) {
	e.abortExecution(it)
	if it.sub != nil && it.sub.QoS.Monitor {
		e.J.Notify(it.sub, e.S.Now(), it.rec.ID,
			"failed on "+nodeID+"/"+elemID+", requeued")
	}
	e.trace(obs.Event{
		Time: e.S.Now(), Kind: obs.KindFail, TaskID: it.tid,
		Node: e.nodeName(it.lease.Cand.Node), Element: e.elemName(it.lease.Cand.Elem),
	})
	e.requeueOrLose(it)
}

// requeueOrLose routes an aborted task through the retry policy: either
// re-enqueue after capped exponential backoff (re-matchmaking from
// scratch — the previous placement is gone, and the strategy sees
// whatever options remain), or declare the task lost once its retry
// budget is exhausted. Without an active fault policy the task retries
// immediately and without bound.
func (e *Engine) requeueOrLose(it *item) {
	it.attempts++
	var pol faults.RetryPolicy
	if e.cfg.Faults != nil {
		pol = e.cfg.Faults.Retry
	}
	if pol.MaxRetries > 0 && it.attempts > pol.MaxRetries {
		e.m.TasksLost++
		e.trace(obs.Event{Time: e.S.Now(), Kind: obs.KindLost, TaskID: it.tid})
		if it.sub != nil {
			e.J.Fail(it.sub, e.S.Now(), "task "+it.rec.ID+" lost after "+strconv.Itoa(it.attempts)+" failed attempts")
		}
		e.recycle(it)
		return
	}
	e.m.Retries++
	f := e.faultState()
	f.backoff = append(f.backoff, it)
	if it.retry == nil {
		it.retry = func() { e.retryNow(it) }
	}
	e.S.After(sim.Time(pol.Delay(it.attempts)), "retry", it.retry)
}

// retryNow ends a task's retry backoff: it re-enters the waiting queue
// and dispatch runs.
func (e *Engine) retryNow(it *item) {
	f := e.flt
	i := slices.Index(f.backoff, it)
	f.backoff = slices.Delete(f.backoff, i, i+1)
	e.pushQueue(it, false)
	e.trace(obs.Event{Time: e.S.Now(), Kind: obs.KindRetry, TaskID: it.tid})
	if it.sub != nil {
		e.J.Notify(it.sub, e.S.Now(), it.rec.ID, "requeued for retry")
	}
	e.tryDispatch()
}

// Run executes the simulation to completion (or the horizon) and returns
// the metrics. Tasks still queued at the end are counted unfinished, and
// the submissions of Submit tasks among them marked failed.
//
// The context bounds wall-clock time, not virtual time: the event loop
// polls ctx periodically and stops at the first observed cancellation or
// deadline. In that case Run returns the metrics accumulated so far
// TOGETHER with the context's error, so callers (the sweep engine in
// particular) can keep partial results. A nil ctx is treated as
// context.Background().
func (e *Engine) Run(ctx context.Context) (*Metrics, error) {
	e.S.Horizon = e.cfg.Horizon
	if e.samplingEnabled() {
		e.startSampler()
	}
	if err := e.S.RunContext(ctx); err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			e.finish()
			return e.m, err
		}
		return nil, err
	}
	e.finish()
	return e.m, nil
}

// finish folds end-of-run accounting into the metrics: tasks stranded in
// flight at the horizon, waiting out a retry backoff or still queued
// become unfinished, the submissions of Submit tasks among them fail,
// open outages are closed, and idle capacity is charged.
func (e *Engine) finish() {
	now := e.S.Now()
	// With sampling on, the clock may have been advanced past the last
	// model event by a trailing sampler tick; the metrics window must
	// not depend on whether an observer was attached.
	if e.samplingEnabled() && e.lastReal > 0 && e.lastReal < now {
		now = e.lastReal
	}
	var inflight []*item
	for _, list := range e.running {
		inflight = append(inflight, list...)
	}
	// Enqueue order, not map order: a submission with several stranded
	// tasks keeps the reason of the last one failed below.
	slices.SortFunc(inflight, func(a, b *item) int { return a.seq - b.seq })
	backoff := e.flt.retries()
	e.m.Unfinished = len(inflight) + len(backoff) + len(e.queue)
	for _, it := range inflight {
		if it.sub != nil {
			e.J.Fail(it.sub, now, "task "+it.rec.ID+" still running when the run ended")
		}
	}
	for _, it := range backoff {
		if it.sub != nil {
			e.J.Fail(it.sub, now, "task "+it.rec.ID+" backing off before a retry when the run ended")
		}
	}
	for _, it := range e.queue {
		if it.sub != nil {
			e.J.Fail(it.sub, now, fmt.Sprintf("task %s unschedulable under %s", it.rec.ID, e.cfg.Strategy.Name()))
		}
	}
	if f := e.flt; f != nil {
		ids := make([]string, 0, len(f.down))
		for id := range f.down {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			e.m.DownSeconds += float64(now - f.down[id].since)
		}
	}
	e.m.WindowSeconds = float64(now)
	e.m.Nodes = e.Reg.Len() + e.flt.nodesDown()
	e.fillCapacity()
	// A final sample closes every timeline series at end-of-run (with
	// idle energy now billed).
	if e.samplingEnabled() {
		e.emitSample()
	}
}

// fillCapacity computes per-kind capacity-seconds over the makespan and
// charges powered-but-idle energy for the unused capacity.
func (e *Engine) fillCapacity() {
	horizon := float64(e.m.Makespan)
	if horizon <= 0 {
		return
	}
	for _, n := range e.Reg.Nodes() {
		for _, el := range n.Elements() {
			units := 1.0
			if el.GPP != nil {
				units = float64(el.GPP.Caps.Cores)
			}
			e.m.capacitySeconds[el.Kind] += units * horizon
		}
	}
	for kind, cap := range e.m.capacitySeconds {
		idle := cap - e.m.busySeconds[kind]
		if idle > 0 {
			e.m.Energy.ChargeIdle(capability.Kind(kind), idle)
		}
	}
}

// ScenarioSpec bundles everything one scenario run needs. It replaced the
// positional RunScenario(seed, cfg, gs, ws, tc) signature: each field is
// named at the call site and new knobs no longer break every caller.
type ScenarioSpec struct {
	// Seed drives workload generation; equal seeds give byte-identical
	// workloads and therefore byte-identical metrics.
	Seed uint64
	// Config parameterizes the engine (strategy, queue policy, links …).
	Config Config
	// Grid describes the simulated resources.
	Grid GridSpec
	// Workload describes the synthetic task stream.
	Workload WorkloadSpec
	// Toolchain is the provider's CAD tool; nil models a provider without
	// one (user-defined-hardware tasks simply never match).
	Toolchain *hdl.Toolchain
	// Trace, when non-empty, replays a fixed workload instead of
	// generating one from Seed/Workload.
	Trace []Generated
	// Faults, when non-nil and enabled, injects a deterministic fault
	// timeline (node crashes, SEUs, link faults) derived from Seed on an
	// independent RNG split and generated as the run reaches it —
	// replaying a seed replays its faults, and sweep replicas derive
	// independent-but-seeded timelines. A zero
	// HorizonSeconds is defaulted from the workload's arrival window.
	Faults *faults.Spec
}

// RunScenario is the one-call harness used by benchmarks and commands:
// build a grid, generate (or replay) a workload, simulate, return metrics.
// The context cancels the run mid-simulation; see Engine.Run for the
// partial-metrics contract.
func RunScenario(ctx context.Context, spec ScenarioSpec) (*Metrics, error) {
	reg, err := BuildGrid(spec.Grid)
	if err != nil {
		return nil, err
	}
	mm, err := rms.NewMatchmaker(reg, spec.Toolchain)
	if err != nil {
		return nil, err
	}
	gen := spec.Trace
	if len(gen) == 0 {
		gen, err = Generate(sim.NewRNG(spec.Seed), spec.Workload)
		if err != nil {
			return nil, err
		}
	}
	cfg := spec.Config
	if spec.Faults != nil {
		f := *spec.Faults
		if f.Enabled() && f.HorizonSeconds <= 0 {
			f.HorizonSeconds = defaultFaultHorizon(gen)
		}
		if err := f.Validate(); err != nil {
			return nil, err
		}
		cfg.Faults = &f
	}
	eng, err := NewEngine(cfg, reg, mm)
	if err != nil {
		return nil, err
	}
	if cfg.Faults != nil && cfg.Faults.Enabled() {
		ids := make([]string, 0, reg.Len())
		for _, n := range reg.Nodes() {
			ids = append(ids, n.ID)
		}
		cur, err := faults.NewCursor(sim.NewRNG(spec.Seed).Split(faults.ScheduleStream), *cfg.Faults, ids)
		if err != nil {
			return nil, err
		}
		eng.InjectFaults(cur)
	}
	if err := eng.SubmitWorkload(gen); err != nil {
		return nil, err
	}
	return eng.Run(ctx)
}

// defaultFaultHorizon bounds fault generation when the spec leaves it
// open: faults keep arriving through the whole arrival window plus a
// drain margin.
func defaultFaultHorizon(gen []Generated) float64 {
	var last sim.Time
	for _, g := range gen {
		if g.Arrival > last {
			last = g.Arrival
		}
	}
	return float64(last)*1.5 + 60
}

// DefaultToolchain returns the provider toolchain used by scenario runs:
// the shared, read-only hdl.DefaultToolchain.
func DefaultToolchain() (*hdl.Toolchain, error) { return hdl.DefaultToolchain() }

// ToSoftwareOnly rewrites copies of the records to the software-only
// scenario with modest GPP demands, one requirement shared by all —
// the GPP-baseline transformation for the hybrid-vs-GPP experiment: the
// same computational work, no accelerator option.
func ToSoftwareOnly(gen []Generated) []Generated {
	out := slices.Clone(gen)
	sw := &task.ExecReq{Scenario: pe.SoftwareOnly, Requirements: task.GPPOnly(1000, 256)}
	for i := range out {
		out[i].ExecReq = sw
		out[i].Work.HWSpeedup = 0
	}
	return out
}
