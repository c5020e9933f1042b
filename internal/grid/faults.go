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

// InjectFaults schedules a fault timeline (typically produced by
// faults.Schedule) onto the engine's simulator. Call it before Run;
// pair it with a Config.Faults spec so lease monitoring and the retry
// policy are active.
func (e *Engine) InjectFaults(events []faults.Event) {
	for _, ev := range events {
		ev := ev
		e.S.Schedule(ev.Time, "fault "+ev.Kind.String()+" "+ev.Node, func() { e.applyFault(ev) })
	}
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

// superviseLease starts the lease renewal loop for an in-flight
// execution: every TTL the RMS checks the hosting node, and while it
// answers the lease is renewed for another TTL. The first check that
// finds the node unreachable expires the lease, so failure-detection
// latency is at most one TTL. Completion and abort cancel the pending
// check, so a check that fires always finds its lease live. No-op
// without an active fault policy.
func (e *Engine) superviseLease(exe *execution) {
	ttl := e.leaseTTL()
	if ttl <= 0 {
		return
	}
	nodeID := exe.lease.Cand.Node.ID
	var check func()
	check = func() {
		if e.unreachable(nodeID) {
			e.expireLease(exe)
			return
		}
		exe.renew = e.S.After(ttl, "lease-renew", check)
	}
	exe.renew = e.S.After(ttl, "lease-renew", check)
}

// expireLease is failure detection firing: the lease is declared dead,
// the fabric region and element capacity it held are released, the task
// re-enters the retry path (re-matchmaking on whatever nodes remain),
// and — once the node has no surviving leases — its registry entry is
// dropped so the matchmaker stops offering it.
func (e *Engine) expireLease(exe *execution) {
	nodeID := exe.lease.Cand.Node.ID
	elemID := exe.lease.Cand.Elem.ID
	e.m.LeaseExpiries++
	e.trace(obs.Event{
		Time: e.S.Now(), Kind: obs.KindLeaseExpired, TaskID: exe.it.tid,
		Node: e.nodeName(exe.lease.Cand.Node), Element: e.elemName(exe.lease.Cand.Elem),
	})
	e.failExecution(exe, nodeID, elemID)
	e.releaseCrashedNode(nodeID)
}

// releaseCrashedNode drops a down node's registry entry once no
// execution still holds capacity on it. The registry refuses to remove
// busy nodes, so a loaded node is released lease by lease as expiries
// land; an idle one goes immediately at crash time.
func (e *Engine) releaseCrashedNode(nodeID string) {
	o, down := e.down[nodeID]
	if !down {
		return
	}
	for _, el := range o.node.Elements() {
		if len(e.running[el]) > 0 {
			return
		}
	}
	_ = e.Reg.RemoveNode(nodeID)
}

// applyCrash silences a node: in-flight completions on it will never
// arrive (their events are cancelled), but the leases stay granted until
// the renewal check notices the node is gone — detection, not omniscience.
func (e *Engine) applyCrash(ev faults.Event) {
	if _, down := e.down[ev.Node]; down {
		return // already down; this event's paired recovery will not match
	}
	n, ok := e.Reg.Node(ev.Node)
	if !ok {
		return // detached or already removed
	}
	if e.down == nil {
		e.down = make(map[string]outage)
	}
	e.down[ev.Node] = outage{seq: ev.Seq, node: n, since: e.S.Now()}
	e.m.NodeCrashes++
	e.trace(obs.Event{Time: e.S.Now(), Kind: obs.KindNodeDown, Node: e.nodeName(n)})
	for _, el := range n.Elements() {
		for _, exe := range e.running[el] {
			e.S.Cancel(exe.ev)
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
	o, down := e.down[ev.Node]
	if !down || o.seq != ev.Seq {
		return // not down, or downed again by a later crash
	}
	n := o.node
	for _, el := range n.Elements() {
		for _, exe := range append([]*execution(nil), e.running[el]...) {
			e.expireLease(exe)
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
	delete(e.down, ev.Node)
	if err := e.Reg.AddNode(n); err != nil {
		panic(fmt.Sprintf("grid: re-adding recovered node %s: %v", ev.Node, err))
	}
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
	if _, down := e.down[ev.Node]; down {
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
		return
	}
	for _, exe := range append([]*execution(nil), e.running[el]...) {
		if exe.lease.Region == r {
			e.failExecution(exe, ev.Node, el.ID)
			break
		}
	}
	e.tryDispatch()
}

// applyLinkDegrade installs a link fault on a node: a slowdown divides
// the link's bandwidth (see linkTo), a partition makes the node
// unreachable — it is skipped by matchmaking and its lease renewals
// fail, so in-flight work on it is (correctly, from the RMS's view)
// declared lost even though the node itself kept running.
func (e *Engine) applyLinkDegrade(ev faults.Event) {
	if e.linkFault == nil {
		e.linkFault = make(map[string]faults.Event)
	}
	e.linkFault[ev.Node] = ev
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
	cur, ok := e.linkFault[ev.Node]
	if !ok || cur.Seq != ev.Seq {
		return
	}
	delete(e.linkFault, ev.Node)
	e.trace(obs.Event{Time: e.S.Now(), Kind: obs.KindLinkRestored, Node: e.name(ev.Node)})
	e.tryDispatch()
}
