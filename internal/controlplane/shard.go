package controlplane

import (
	"slices"
	"sort"
	"sync"

	"repro/internal/sched"
	"repro/internal/task"
)

// The dispatcher is sharded: tenants are partitioned across N shards by a
// hash of the tenant name, and each shard's lock guards its tenants
// outright; shards share no mutable state. A request holds its shard's
// lock from admission to answer, and an accepted submit runs to a
// terminal state before the lock is released (unless the server is
// paused, when it stays queued until resume or drain). So what a request
// observes depends only on the requests before it, never on how fast
// anything ran: because every tenant engine is deterministic in
// isolation (see tenantEngine) and its shard's lock totally orders a
// tenant's requests, per-tenant results are identical for any shard
// count; sharding buys throughput, never different answers.

// TenantDump is one tenant's full state snapshot for OpDump and
// `rmsd -dump-state`.
type TenantDump struct {
	Stats TenantStats
	// Fabric describes each RPE of the tenant slice, one line per device.
	Fabric []string
}

// shard owns a partition of the tenant space.
type shard struct {
	srv *Server

	mu      sync.Mutex
	tenants map[string]*tenantEngine // guarded by mu
	// order holds the engines sorted by (tier priority, creation order):
	// the order runQueued empties their queues in. Higher tiers drain
	// first — the control plane's rendering of RC3E priority.
	order []*tenantEngine // guarded by mu
	// task is where an accepted task that runs at once is built and
	// executed from (see submitLocked), so it is never a heap object of
	// its own. It is zero between requests.
	task task.Task // guarded by mu
	// opts is the scratch option slice every placement of the shard's
	// tenants reuses, so no tenant keeps one of its own.
	opts []sched.Option // guarded by mu
}

func newShard(srv *Server) *shard {
	return &shard{srv: srv, tenants: make(map[string]*tenantEngine)}
}

// do serves one validated tenant-routed request (submit, status, cancel,
// or stats with a tenant) under the shard's lock. A request that takes
// the lock after Shutdown began answers internal.
func (sh *shard) do(req *Request, nowNanos int64) Response {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.srv.closed.Load() {
		return errShutdown(req.Op)
	}
	if req.Op == OpSubmit {
		return sh.submitLocked(req, nowNanos)
	}
	te, ok := sh.tenants[req.Tenant]
	if !ok {
		return errorResponse(req.Op, errWire(CodeUnknownTenant, "unknown tenant %q", req.Tenant))
	}
	switch req.Op {
	case OpStatus:
		return te.status(req.TaskID)
	case OpCancel:
		return te.cancel(req.TaskID)
	}
	snap := te.snapshot()
	return Response{OK: true, Op: OpStats, Tenant: te.id, Stats: &snap}
}

// submitLocked serves one submit. An accepted task on a running server
// runs from the shard's task slot to a terminal state before the submit
// answers, unless its tenant still has tasks queued from a pause that no
// resume or drain has run yet: then it joins the queue behind them, and
// the queue runs empty. A paused server only queues. The answer is the
// admission state either way.
func (sh *shard) submitLocked(req *Request, nowNanos int64) Response {
	te, err := sh.engineForLocked(req.Tenant, req.Tier, nowNanos)
	if err != nil {
		return errorResponse(OpSubmit, err)
	}
	resp := te.submit(req.Task, nowNanos, sh.srv.draining.Load(), &sh.task)
	if resp.OK {
		if paused := sh.srv.paused.Load(); paused || len(te.queue) > 0 {
			te.queue = append(te.queue, sh.task)
			if !paused {
				te.run(&sh.opts)
			}
		} else {
			te.execute(&sh.task, &sh.opts)
		}
	}
	sh.task = task.Task{}
	return resp
}

// runQueued runs every tenant's queue empty in dispatch order under the
// shard's lock; false means Shutdown began first.
func (sh *shard) runQueued() bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.srv.closed.Load() {
		return false
	}
	for _, te := range sh.order {
		te.run(&sh.opts)
	}
	return true
}

// engineForLocked returns the tenant's engine, creating it on first
// submit. A tier named explicitly on a later submit must match the tier
// the tenant was created under.
func (sh *shard) engineForLocked(tenant, tierName string, nowNanos int64) (*tenantEngine, error) {
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

// snapshotAll snapshots every shard's tenants, each shard under its lock,
// into one slice sized to the roster, and sorts it by name. A tenant
// created between the count and its shard's snapshot grows the slice.
func snapshotAll[T any](s *Server, snap func(*tenantEngine) T, name func(*T) string) ([]T, error) {
	n := 0
	for _, sh := range s.shards {
		n += sh.size()
	}
	out := make([]T, 0, n)
	for _, sh := range s.shards {
		var ok bool
		if out, ok = snapshotShard(sh, out, snap); !ok {
			return nil, errShuttingDown
		}
	}
	sort.Slice(out, func(i, j int) bool { return name(&out[i]) < name(&out[j]) })
	return out, nil
}

// size is the shard's tenant count.
func (sh *shard) size() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(sh.order)
}

// snapshotShard appends the shard's tenants to out under its lock, in
// dispatch order; false means Shutdown began first.
func snapshotShard[T any](sh *shard, out []T, snap func(*tenantEngine) T) ([]T, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.srv.closed.Load() {
		return nil, false
	}
	for _, te := range sh.order {
		out = append(out, snap(te))
	}
	return out, true
}

// dump returns the tenant's counters and one line per RPE of its slice.
func (te *tenantEngine) dump() TenantDump {
	d := TenantDump{Stats: te.snapshot()}
	for _, n := range te.reg.Nodes() {
		for _, e := range n.RPEs() {
			st := e.Fabric.State()
			d.Fabric = append(d.Fabric, e.ID+" "+st.String())
		}
	}
	return d
}
