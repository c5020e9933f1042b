package grid

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/sim"
)

// This file owns the engine's side of fault injection: applying a
// deterministic fault timeline (from internal/faults) to live grid
// state, lease-based failure detection, and node recovery. All handlers
// run on the simulator goroutine; none of them draws randomness — every
// choice below node granularity is resolved from the event's Selector
// bits, so a fault schedule replays identically.

// outage is one crashed node's record: the fault that downed it, the
// node itself (detached from the registry once idle) and when the outage
// began.
type outage struct {
	seq   uint64
	node  *node.Node
	since sim.Time
}

// faultState is an engine's fault-injection state, touched only from
// simulator handlers and made at the first fault that writes it (see
// Engine.faultState), so an engine no fault reaches holds one nil
// pointer. down holds the outage record of each crashed node; linkFault
// holds the active link fault per node; backoff lists the tasks waiting
// out a retry backoff, in the order they began it.
type faultState struct {
	down      map[string]outage
	linkFault map[string]faults.Event
	backoff   []*item
}

// faultState returns the engine's fault state, making it at the first
// write.
func (e *Engine) faultState() *faultState {
	if e.flt == nil {
		e.flt = &faultState{down: map[string]outage{}, linkFault: map[string]faults.Event{}}
	}
	return e.flt
}

// retries returns the tasks backing off before a retry; nil on an engine
// no fault reached.
func (f *faultState) retries() []*item {
	if f == nil {
		return nil
	}
	return f.backoff
}

// nodesDown returns how many nodes are crashed.
func (f *faultState) nodesDown() int {
	if f == nil {
		return 0
	}
	return len(f.down)
}

// InjectFaults streams a fault timeline (typically produced by
// faults.Schedule) into the engine's simulator, in (Time, index) order:
// an unsorted timeline is accepted, and faults tied on time apply in
// slice order, after the events already scheduled for that time and
// before those scheduled later. Each fault is read from the slice when
// it applies, so the caller must not modify events until Run returns.
// Call it before Run; pair it with a Config.Faults spec so lease
// monitoring and the retry policy are active.
func (e *Engine) InjectFaults(events []faults.Event) {
	e.stream(len(events), "fault", func(i int) sim.Time { return events[i].Time }, func(i int) {
		e.applyFault(events[i])
	})
}

func (e *Engine) applyFault(ev faults.Event) {
	switch ev.Kind {
	case faults.KindNodeCrash:
		e.applyCrash(ev)
	case faults.KindNodeRecover:
		e.applyRecover(ev)
	case faults.KindSEU:
		e.applySEU(ev)
	case faults.KindLinkDegrade:
		e.applyLinkDegrade(ev)
	case faults.KindLinkRestore:
		e.applyLinkRestore(ev)
	}
}

// leaseTTL returns the lease renewal interval, or 0 when no fault policy
// is active (no monitoring).
func (e *Engine) leaseTTL() sim.Time {
	if e.cfg.Faults == nil {
		return 0
	}
	if e.cfg.Faults.LeaseTTLSeconds > 0 {
		return sim.Time(e.cfg.Faults.LeaseTTLSeconds)
	}
	return sim.Time(faults.DefaultLeaseTTL)
}

// superviseLease starts the lease renewal loop for a task in flight:
// every TTL the RMS checks the hosting node, and while it answers the
// lease is renewed for another TTL. The first check that finds the node
// unreachable expires the lease, so failure-detection latency is at most
// one TTL. Completion and abort cancel the pending check, so a check
// that fires always finds its lease live. No-op without an active fault
// policy.
func (e *Engine) superviseLease(it *item) {
	ttl := e.leaseTTL()
	if ttl <= 0 {
		return
	}
	nodeID := it.lease.Cand.Node.ID
	var check func()
	check = func() {
		if _, ok := e.link(nodeID); !ok {
			e.expireLease(it)
			return
		}
		it.renew = e.S.After(ttl, "lease-renew", check)
	}
	it.renew = e.S.After(ttl, "lease-renew", check)
}

// expireLease is failure detection firing: the lease is declared dead,
// the fabric region and element capacity it held are released, the task
// re-enters the retry path (re-matchmaking on whatever nodes remain),
// and — once the node has no surviving leases — its registry entry is
// dropped so the matchmaker stops offering it.
func (e *Engine) expireLease(it *item) {
	nodeID := it.lease.Cand.Node.ID
	elemID := it.lease.Cand.Elem.ID
	e.m.LeaseExpiries++
	e.trace(obs.Event{
		Time: e.S.Now(), Kind: obs.KindLeaseExpired, TaskID: it.tid,
		Node: e.nodeName(it.lease.Cand.Node), Element: e.elemName(it.lease.Cand.Elem),
	})
	e.failExecution(it, nodeID, elemID)
	e.releaseCrashedNode(nodeID)
}

// releaseCrashedNode drops a down node's registry entry once no task
// in flight still holds capacity on it. The registry refuses to remove
// busy nodes, so a loaded node is released lease by lease as expiries
// land; an idle one goes immediately at crash time.
func (e *Engine) releaseCrashedNode(nodeID string) {
	o, down := e.faultState().down[nodeID]
	if !down {
		return
	}
	for _, el := range o.node.Elements() {
		if len(e.running[el]) > 0 {
			return
		}
	}
	if e.Reg.RemoveNode(nodeID) == nil {
		// A software task offered only this node's free cores, while the
		// node was cut off, may now fall back to a soft-core elsewhere.
		e.epoch++
	}
}

// applyCrash silences a node: in-flight completions on it will never
// arrive (their events are cancelled), but the leases stay granted until
// the renewal check notices the node is gone — detection, not omniscience.
func (e *Engine) applyCrash(ev faults.Event) {
	f := e.faultState()
	if _, down := f.down[ev.Node]; down {
		return // already down; this event's paired recovery will not match
	}
	n, ok := e.Reg.Node(ev.Node)
	if !ok {
		return // detached or already removed
	}
	f.down[ev.Node] = outage{seq: ev.Seq, node: n, since: e.S.Now()}
	e.m.NodeCrashes++
	e.trace(obs.Event{Time: e.S.Now(), Kind: obs.KindNodeDown, Node: e.nodeName(n)})
	for _, el := range n.Elements() {
		for _, it := range e.running[el] {
			e.S.Cancel(it.ev)
		}
	}
	e.releaseCrashedNode(ev.Node)
}

// applyRecover reboots a crashed node: leases that outlived the outage
// are expired now (the reboot lost their work regardless of what the
// renewal checks had seen), the fabric comes back blank — no
// configuration survives a power cycle, so post-recovery tasks pay
// reconfiguration again — and the node re-registers, immediately
// eligible for queued work.
func (e *Engine) applyRecover(ev faults.Event) {
	f := e.faultState()
	o, down := f.down[ev.Node]
	if !down || o.seq != ev.Seq {
		return // not down, or downed again by a later crash
	}
	n := o.node
	for _, el := range n.Elements() {
		for _, it := range append([]*item(nil), e.running[el]...) {
			e.expireLease(it)
		}
	}
	_ = e.Reg.RemoveNode(ev.Node)
	for _, el := range n.RPEs() {
		for _, r := range el.Fabric.Regions() {
			_ = el.Fabric.Evict(r)
		}
	}
	e.m.DownSeconds += float64(e.S.Now() - o.since)
	e.m.NodeRecoveries++
	delete(f.down, ev.Node)
	if err := e.Reg.AddNode(n); err != nil {
		panic(fmt.Sprintf("grid: re-adding recovered node %s: %v", ev.Node, err))
	}
	e.epoch++
	e.trace(obs.Event{Time: e.S.Now(), Kind: obs.KindNodeUp, Node: e.nodeName(n)})
	e.tryDispatch()
}

// applySEU corrupts one loaded RPE configuration, chosen from the
// event's Selector bits. A busy region aborts the task using it (the
// corrupted circuit cannot be trusted) and forces a reconfiguration on
// retry; an idle region is evicted so no later task reuses garbage.
// Strikes on down nodes, pure-GPP nodes, or unconfigured fabric are
// harmless and uncounted.
func (e *Engine) applySEU(ev faults.Event) {
	if _, down := e.faultState().down[ev.Node]; down {
		return
	}
	n, ok := e.Reg.Node(ev.Node)
	if !ok {
		return
	}
	rpes := n.RPEs()
	if len(rpes) == 0 {
		return
	}
	el := rpes[int(ev.Selector%uint64(len(rpes)))]
	regs := el.Fabric.Regions()
	if len(regs) == 0 {
		return
	}
	r := regs[int((ev.Selector>>16)%uint64(len(regs)))]
	e.m.SEUFaults++
	e.trace(obs.Event{Time: e.S.Now(), Kind: obs.KindSEU, Node: e.nodeName(n), Element: e.elemName(el)})
	if !r.Busy {
		_ = el.Fabric.Evict(r)
		e.epoch++
		return
	}
	for _, it := range append([]*item(nil), e.running[el]...) {
		if it.lease.Region == r {
			e.failExecution(it, ev.Node, el.ID)
			break
		}
	}
	e.tryDispatch()
}

// applyLinkDegrade installs a link fault on a node: a slowdown divides
// the link's bandwidth (see link), a partition makes the node
// unreachable — it is skipped by matchmaking and its lease renewals
// fail, so in-flight work on it is (correctly, from the RMS's view)
// declared lost even though the node itself kept running.
func (e *Engine) applyLinkDegrade(ev faults.Event) {
	f := e.faultState()
	if cur, ok := f.linkFault[ev.Node]; ok && cur.Partition && !ev.Partition {
		// A slowdown that replaces a partition makes the node reachable.
		e.epoch++
	}
	f.linkFault[ev.Node] = ev
	e.m.LinkFaults++
	detail := ""
	if ev.Partition {
		detail = "partition"
	}
	e.trace(obs.Event{Time: e.S.Now(), Kind: obs.KindLinkDegraded, Node: e.name(ev.Node), Element: e.name(detail)})
}

// applyLinkRestore clears a link fault, unless a newer fault on the same
// link superseded it (the newer fault's own restore will clear that).
func (e *Engine) applyLinkRestore(ev faults.Event) {
	f := e.faultState()
	cur, ok := f.linkFault[ev.Node]
	if !ok || cur.Seq != ev.Seq {
		return
	}
	delete(f.linkFault, ev.Node)
	e.epoch++
	e.trace(obs.Event{Time: e.S.Now(), Kind: obs.KindLinkRestored, Node: e.name(ev.Node)})
	e.tryDispatch()
}
