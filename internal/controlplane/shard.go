package controlplane

import (
	"slices"
	"sort"
)

// The dispatcher is sharded: tenants are partitioned across N shards by a
// hash of the tenant name, and each shard is a single goroutine owning its
// tenants outright — no locks, no shared state between shards. All
// cross-shard communication is message passing over the shard inbox.
// Because every tenant engine is deterministic in isolation (see
// tenantEngine) and a tenant's requests are totally ordered by its shard,
// per-tenant results are identical for any shard count; sharding buys
// throughput, never different answers.

// ctlKind selects what an inbox message asks the shard to do.
type ctlKind int

const (
	// ctlRequest carries a tenant-routed wire request.
	ctlRequest ctlKind = iota
	// ctlDrainWait registers the reply channel to be answered when the
	// shard has no queued work left.
	ctlDrainWait
	// ctlStatsAll asks for every tenant's counter snapshot.
	ctlStatsAll
	// ctlDumpAll asks for every tenant's full state dump.
	ctlDumpAll
	// ctlNudge wakes the shard loop (after a resume) and is acknowledged
	// immediately.
	ctlNudge
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

// TenantDump is one tenant's full state snapshot for OpDump and the
// differential/golden test suites.
type TenantDump struct {
	Stats TenantStats
	// DoneLog lists completed task IDs in completion order.
	DoneLog []string
	// Fabric describes each RPE of the tenant slice, one line per device.
	Fabric []string
}

// advanceBatch bounds how many tasks a shard executes between inbox
// polls, so requests stay responsive under deep queues.
const advanceBatch = 32

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
	// the dispatch order. Higher tiers drain first — the control plane's
	// rendering of RC3E priority.
	order []*tenantEngine
	// pending counts queued tasks across all tenants of the shard.
	pending int

	drainWaiters []chan shardReply
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

// send delivers a message and waits for the reply; false means the
// server shut down first.
func (sh *shard) send(m opMsg) (shardReply, bool) {
	select {
	case sh.inbox <- m:
	case <-sh.quit:
		return shardReply{}, false
	}
	select {
	case r := <-m.reply:
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

// loop is the shard goroutine: handle every queued message, then either
// advance tenant work or block for the next message. Drain waiters are
// settled whenever the shard goes idle.
func (sh *shard) loop() {
	defer sh.srv.wg.Done()
	for {
		select {
		case <-sh.quit:
			return
		default:
		}
		// Handle everything already queued before running more work, so
		// cancels and stats see a fresh state and submits batch up.
		for pumped := true; pumped; {
			select {
			case m := <-sh.inbox:
				sh.handle(m)
			default:
				pumped = false
			}
		}
		if sh.pending > 0 && !sh.srv.paused.Load() {
			sh.advance()
			continue
		}
		sh.settleDrains()
		select {
		case m := <-sh.inbox:
			sh.handle(m)
		case <-sh.quit:
			return
		}
	}
}

// advance executes up to advanceBatch queued tasks, highest tier first.
func (sh *shard) advance() {
	ran := 0
	for _, te := range sh.order {
		for ran < advanceBatch && te.hasWork() {
			te.step()
			sh.pending--
			ran++
		}
		if ran >= advanceBatch {
			return
		}
	}
}

// settleDrains answers every waiting drain once no work is queued.
func (sh *shard) settleDrains() {
	if sh.pending > 0 || len(sh.drainWaiters) == 0 {
		return
	}
	for _, w := range sh.drainWaiters {
		w <- shardReply{resp: Response{OK: true, Op: OpDrain}}
	}
	sh.drainWaiters = nil
}

// handle dispatches one inbox message.
func (sh *shard) handle(m opMsg) {
	switch m.kind {
	case ctlDrainWait:
		sh.drainWaiters = append(sh.drainWaiters, m.reply)
	case ctlStatsAll:
		m.reply <- shardReply{stats: sh.statsAll()}
	case ctlDumpAll:
		m.reply <- shardReply{dumps: sh.dumpAll()}
	case ctlNudge:
		m.reply <- shardReply{}
	default:
		m.reply <- shardReply{resp: sh.request(m)}
	}
}

// request serves one tenant-routed wire request.
func (sh *shard) request(m opMsg) Response {
	switch m.req.Op {
	case OpSubmit:
		te, err := sh.engineFor(m.req.Tenant, m.req.Tier, m.nowNanos)
		if err != nil {
			return errorResponse(OpSubmit, err)
		}
		before := len(te.queue)
		resp := te.submit(m.req.Task, m.nowNanos, sh.srv.draining.Load())
		sh.pending += len(te.queue) - before
		return resp
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
		before := len(te.queue)
		resp := te.cancel(m.req.TaskID)
		sh.pending += len(te.queue) - before
		return resp
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
	te, err := newTenantEngine(tenant, tier, sh.srv.tenantSeed(tenant), &sh.srv.cfg, nowNanos)
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
		d := TenantDump{
			Stats: te.snapshot(),
			//reconlint:sanitized doneLog is capped at maxDoneLog entries on completion, so this snapshot copy is bounded
			DoneLog: append([]string(nil), te.doneLog...),
		}
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
