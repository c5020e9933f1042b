package controlplane

import (
	"slices"
	"sort"
	"sync"

	"repro/internal/task"
)

// The dispatcher is sharded: tenants are partitioned across N shards by a
// hash of the tenant name, and each shard is a single goroutine owning its
// tenants outright — no locks, no shared state between shards. All
// cross-shard communication is message passing over the shard inbox.
// A shard handles one message at a time, and an accepted submit runs to
// a terminal state before the shard reads its next message (unless the
// server is paused, when it stays queued until resume or drain). So what
// a request observes depends only on the requests before it, never on
// how fast the shard ran: because every tenant engine is deterministic
// in isolation (see tenantEngine) and a tenant's requests are totally
// ordered by its shard, per-tenant results are identical for any shard
// count; sharding buys throughput, never different answers.

// ctlKind selects what an inbox message asks the shard to do.
type ctlKind int

const (
	// ctlRequest carries a tenant-routed wire request.
	ctlRequest ctlKind = iota
	// ctlRunQueued asks the shard to run every tenant's queue empty and
	// is answered when it has.
	ctlRunQueued
	// ctlStatsAll asks for every tenant's counter snapshot.
	ctlStatsAll
	// ctlDumpAll asks for every tenant's full state dump.
	ctlDumpAll
)

// opMsg is one message into a shard inbox.
type opMsg struct {
	kind ctlKind
	req  Request
	// nowNanos is the admission clock reading taken at receipt.
	nowNanos int64
	reply    chan shardReply
}

// shardReply is a shard's answer; exactly one field is populated
// depending on the request kind.
type shardReply struct {
	resp  Response
	stats []TenantStats
	dumps []TenantDump
}

// TenantDump is one tenant's full state snapshot for OpDump and
// `rmsd -dump-state`.
type TenantDump struct {
	Stats TenantStats
	// Fabric describes each RPE of the tenant slice, one line per device.
	Fabric []string
}

// shard owns a partition of the tenant space. Everything below is
// accessed only from the shard's own loop goroutine.
type shard struct {
	id    int
	srv   *Server
	inbox chan opMsg
	// quit is closed by Server.Shutdown; it both stops the loop and
	// unblocks senders.
	quit chan struct{}

	tenants map[string]*tenantEngine
	// order holds the engines sorted by (tier priority, creation order):
	// the order runQueued empties their queues in. Higher tiers drain
	// first — the control plane's rendering of RC3E priority.
	order []*tenantEngine
	// task is where an accepted task that runs at once is built and
	// executed from (see submit), so it is never a heap object of its
	// own. It is zero between messages.
	task task.Task
}

func newShard(id int, srv *Server) *shard {
	return &shard{
		id:      id,
		srv:     srv,
		inbox:   make(chan opMsg, 256),
		quit:    make(chan struct{}),
		tenants: make(map[string]*tenantEngine),
	}
}

// replyPool recycles the one-slot reply channels of send across every
// server.
var replyPool = sync.Pool{New: func() any { return make(chan shardReply, 1) }}

// send delivers a message on a reply channel from replyPool and waits for
// the reply; false means the server shut down first. The channel goes
// back to the pool only once its reply has been received: when a
// shutdown cuts the wait off, the shard may have taken the message
// already and still answer on the channel, and that late reply must not
// reach another call.
func (sh *shard) send(m opMsg) (shardReply, bool) {
	m.reply = replyPool.Get().(chan shardReply)
	select {
	case sh.inbox <- m:
	case <-sh.quit:
		return shardReply{}, false
	}
	select {
	case r := <-m.reply:
		replyPool.Put(m.reply)
		return r, true
	case <-sh.quit:
		return shardReply{}, false
	}
}

// post delivers a message without waiting for a reply; false means the
// server shut down first.
func (sh *shard) post(m opMsg) bool {
	select {
	case sh.inbox <- m:
		return true
	case <-sh.quit:
		return false
	}
}

// loop is the shard goroutine: it handles one message at a time, each
// to the end (an accepted submit's execution included), until shutdown.
func (sh *shard) loop() {
	defer sh.srv.wg.Done()
	for {
		select {
		case m := <-sh.inbox:
			sh.handle(m)
		case <-sh.quit:
			return
		}
	}
}

// handle dispatches one inbox message.
func (sh *shard) handle(m opMsg) {
	switch m.kind {
	case ctlRunQueued:
		sh.runQueued()
		m.reply <- shardReply{}
	case ctlStatsAll:
		m.reply <- shardReply{stats: sh.statsAll()}
	case ctlDumpAll:
		m.reply <- shardReply{dumps: sh.dumpAll()}
	default:
		if m.req.Op == OpSubmit {
			sh.submit(m)
			return
		}
		m.reply <- shardReply{resp: sh.request(m)}
	}
}

// submit serves one submit. An accepted task on a running server is
// executed right after its reply goes out, so the client's next request
// overlaps the execution but the shard reads it only once the task is
// terminal. It runs from the shard's task slot, unless its tenant still
// has tasks queued from a pause that no resume or drain has run yet:
// then it joins the queue behind them, and the queue runs empty. A
// paused server only queues. The pause flag is read before the reply, so
// a pause sent after this answer cannot hold the task back.
func (sh *shard) submit(m opMsg) {
	te, err := sh.engineFor(m.req.Tenant, m.req.Tier, m.nowNanos)
	if err != nil {
		m.reply <- shardReply{resp: errorResponse(OpSubmit, err)}
		return
	}
	resp := te.submit(m.req.Task, m.nowNanos, sh.srv.draining.Load(), &sh.task)
	paused := sh.srv.paused.Load()
	queue := resp.OK && (paused || len(te.queue) > 0)
	if queue {
		te.queue = append(te.queue, sh.task)
	}
	m.reply <- shardReply{resp: resp}
	if resp.OK && !paused {
		if queue {
			te.run()
		} else {
			te.execute(&sh.task)
		}
	}
	sh.task = task.Task{}
}

// runQueued runs every tenant's queue empty in dispatch order.
func (sh *shard) runQueued() {
	for _, te := range sh.order {
		te.run()
	}
}

// request serves one tenant-routed wire request other than a submit.
func (sh *shard) request(m opMsg) Response {
	switch m.req.Op {
	case OpStatus:
		te, ok := sh.tenants[m.req.Tenant]
		if !ok {
			return errorResponse(OpStatus, errWire(CodeUnknownTenant, "unknown tenant %q", m.req.Tenant))
		}
		return te.status(m.req.TaskID)
	case OpCancel:
		te, ok := sh.tenants[m.req.Tenant]
		if !ok {
			return errorResponse(OpCancel, errWire(CodeUnknownTenant, "unknown tenant %q", m.req.Tenant))
		}
		return te.cancel(m.req.TaskID)
	case OpStats:
		te, ok := sh.tenants[m.req.Tenant]
		if !ok {
			return errorResponse(OpStats, errWire(CodeUnknownTenant, "unknown tenant %q", m.req.Tenant))
		}
		snap := te.snapshot()
		return Response{OK: true, Op: OpStats, Tenant: te.id, Stats: &snap}
	}
	return errorResponse(m.req.Op, errWire(CodeUnknownOp, "unknown op %q", m.req.Op))
}

// engineFor returns the tenant's engine, creating it on first submit.
// A tier named explicitly on a later submit must match the tier the
// tenant was created under.
func (sh *shard) engineFor(tenant, tierName string, nowNanos int64) (*tenantEngine, error) {
	tier, err := ParseTier(tierName)
	if err != nil {
		return nil, errWire(CodeUnknownTier, "unknown tier %q", tierName)
	}
	if te, ok := sh.tenants[tenant]; ok {
		if tierName != "" && te.tier != tier {
			return nil, errWire(CodeTierConflict, "tenant %q is %s-tier; cannot submit as %s", tenant, te.tier, tier)
		}
		return te, nil
	}
	te, err := newTenantEngine(tenant, tier, &sh.srv.policies[tier], sh.srv.tenantSeed(tenant), &sh.srv.cfg, nowNanos)
	if err != nil {
		return nil, err
	}
	sh.tenants[tenant] = te
	sh.order = insertByPriority(sh.order, te)
	return te, nil
}

// insertByPriority inserts te into order, which is sorted by (priority,
// first-seen), after the last engine of its priority band: the same order
// a stable sort by priority gives, at O(n) instead of O(n log n) per new
// tenant.
func insertByPriority(order []*tenantEngine, te *tenantEngine) []*tenantEngine {
	i := sort.Search(len(order), func(k int) bool {
		return order[k].policy.Priority > te.policy.Priority
	})
	return slices.Insert(order, i, te)
}

// statsAll snapshots every tenant, sorted by name.
func (sh *shard) statsAll() []TenantStats {
	out := make([]TenantStats, 0, len(sh.order))
	for _, te := range sh.order {
		out = append(out, te.snapshot())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// dumpAll snapshots every tenant's full state, sorted by name.
func (sh *shard) dumpAll() []TenantDump {
	out := make([]TenantDump, 0, len(sh.order))
	for _, te := range sh.order {
		d := TenantDump{Stats: te.snapshot()}
		for _, n := range te.reg.Nodes() {
			for _, e := range n.RPEs() {
				st := e.Fabric.State()
				d.Fabric = append(d.Fabric, e.ID+" "+st.String())
			}
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Stats.Tenant < out[j].Stats.Tenant })
	return out
}
