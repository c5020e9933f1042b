package controlplane

import (
	"fmt"

	"repro/internal/capability"
	"repro/internal/faults"
	"repro/internal/hdl"
	"repro/internal/jss"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/pe"
	"repro/internal/rms"
	"repro/internal/sim"
	"repro/internal/task"
)

// TenantStats is the per-tenant counter snapshot the wire API exposes.
// The conservation invariant the property suite enforces is
//
//	Submitted == Completed + Rejected + Evicted + Canceled + InFlight
//
// at every point in the tenant's life, with InFlight == 0 after a drain.
type TenantStats struct {
	Tenant string `json:"tenant"`
	Tier   string `json:"tier"`
	// Submitted counts every submit request received for the tenant;
	// Accepted the ones past admission (Accepted = Submitted - Rejected).
	Submitted int `json:"submitted"`
	Accepted  int `json:"accepted"`
	// Rejected counts every admission denial (quota, queue bound,
	// invalid task, draining); QuotaDenied is the subset denied by a
	// tier resource limit — admission rate, queue bound, or cost
	// budget — as opposed to malformed or mistimed requests.
	Rejected    int `json:"rejected"`
	QuotaDenied int `json:"quota_denied"`
	// Completed / Evicted / Canceled are terminal outcomes; InFlight is
	// the queued-or-running remainder.
	Completed int `json:"completed"`
	Evicted   int `json:"evicted"`
	Canceled  int `json:"canceled"`
	InFlight  int `json:"in_flight"`
	// Retries counts fault-aborted attempts that were re-queued.
	Retries int `json:"retries"`
	// FaultAborts counts execution attempts killed by an injected fault
	// (whether or not the task was later re-queued). RepairedTasks and
	// RepairSeconds accumulate the repair record: a task that completes
	// after at least one fault abort contributes the virtual time from
	// its last fault strike to its completion, so
	// RepairSeconds/RepairedTasks is the tenant's mean time to repair.
	// All three are omitempty: fault-free runs serialize exactly as
	// before these fields existed.
	FaultAborts   int     `json:"fault_aborts,omitempty"`
	RepairedTasks int     `json:"repaired_tasks,omitempty"`
	RepairSeconds float64 `json:"repair_seconds,omitempty"`
	// VirtualSeconds is the tenant engine's virtual clock; CostUnits the
	// accumulated execution cost at the jss cost rates.
	VirtualSeconds float64 `json:"virtual_seconds"`
	CostUnits      float64 `json:"cost_units"`
}

// conserved reports whether the tenant's counters balance.
func (s TenantStats) conserved() bool {
	return s.Submitted == s.Completed+s.Rejected+s.Evicted+s.Canceled+s.InFlight
}

// taskState is a control-plane task's lifecycle state.
type taskState int

const (
	stateQueued taskState = iota
	stateDone
	stateEvicted
	stateCanceled
)

// maxDoneLog bounds the per-tenant completion log: large enough for
// every test workload and any plausible dump window, small enough that
// a tenant completing tasks forever cannot grow server memory.
const maxDoneLog = 4096

var taskStateNames = [...]string{
	stateQueued: "queued", stateDone: "done",
	stateEvicted: "evicted", stateCanceled: "canceled",
}

func (s taskState) String() string {
	if s >= 0 && int(s) < len(taskStateNames) {
		return taskStateNames[s]
	}
	return fmt.Sprintf("taskState(%d)", int(s))
}

// cpTask is one accepted task riding through a tenant engine. Once the
// task is terminal, settle drops t and sub: a settled record keeps only
// what status, cancel and the duplicate-ID check read back, its ID and
// state.
type cpTask struct {
	id    string
	t     *task.Task
	sub   *jss.Submission
	state taskState
	// attempts counts fault-aborted executions so far; lastFaultAt is
	// the virtual time of the most recent abort, the start of the repair
	// window MTTR accounting measures.
	attempts    int
	lastFaultAt sim.Time
	// queuedAt/doneAt are tenant-virtual times.
	queuedAt sim.Time
	doneAt   sim.Time
}

// tenantEngine is one tenant's deterministic slice of the control plane:
// a vFPGA slice (a private registry/matchmaker over the tier's device
// set), a jss instance for validation/quotas/cost accounting, and a
// discrete-event simulator providing the virtual clock work executes
// under. Everything the engine does is a pure function of (tenant seed,
// op sequence): it draws no wall-clock time and no global randomness,
// which is what makes per-tenant results independent of the shard count
// and of cross-tenant interleaving.
//
// A tenantEngine is owned by exactly one shard goroutine; it needs no
// locking.
type tenantEngine struct {
	id     string
	tier   Tier
	policy TierPolicy
	seed   uint64

	reg *rms.Registry
	mm  *rms.Matchmaker
	jss *jss.JSS
	sim *sim.Simulator

	// faultEvents is the precomputed, time-sorted fault timeline for the
	// slice; faultIdx the consumption cursor (virtual time is monotone).
	faultEvents []faults.Event
	faultIdx    int

	queue []*cpTask
	tasks map[string]*cpTask
	// doneLog records completed task IDs in completion order — the
	// differential suite compares these sets across shard counts. Capped
	// at maxDoneLog (oldest dropped): a long-running server must not
	// grow memory with every task a tenant ever completed.
	doneLog []string

	bucket tokenBucket
	// costBudget caps total accepted cost when positive (wired through
	// jss QoS so over-budget submissions reject with ErrQuotaExceeded).
	costBudget float64
	quotedCost float64

	stats TenantStats

	// Observability: nil sink disables emission entirely.
	sink      obs.TraceSink
	name      obs.Name
	elemNames map[*node.Element]obs.Name
	// sampleEvery emits a gauge sample every N completions (0 = off).
	sampleEvery int
	sinceSample int
}

// tenantReqs are the per-scenario requirement sets of the wire task
// mix. They are identical for every tenant and never mutated, so one
// package-level set serves all tenant engines on every shard.
var tenantReqs = struct {
	software, softcore, userHW capability.Requirements
}{
	software: task.GPPOnly(1000, 256),
	softcore: capability.Requirements{}.Min(capability.ParamSoftIssueWidth, 2),
	userHW:   task.FPGAFamily("Virtex-5", 1),
}

// newTenantEngine builds a tenant's slice for its tier. The clock
// argument seeds the admission bucket's refill timeline.
func newTenantEngine(id string, tier Tier, seed uint64, cfg *Config, nowNanos int64) (*tenantEngine, error) {
	policy := tier.Policy()
	if cfg.NowNanos == nil {
		// Without an admission clock the bucket could never refill, so
		// rate limiting is off entirely; queue bounds still apply.
		policy.RatePerSec = 0
	}
	if cfg.MaxQueueOverride > 0 {
		policy.MaxQueue = cfg.MaxQueueOverride
	}
	if cfg.RateOverride > 0 {
		policy.RatePerSec = cfg.RateOverride
	}
	if cfg.BurstOverride > 0 {
		policy.Burst = cfg.BurstOverride
	}

	n, err := node.New("n0")
	if err != nil {
		return nil, err
	}
	if _, err := n.AddGPP(capability.GPPCaps{
		CPUType: "Intel Xeon E5540", MIPS: 42000, OS: "Linux",
		RAMMB: 16384, Cores: policy.GPPCores,
	}); err != nil {
		return nil, err
	}
	for _, dev := range policy.RPEDevices {
		if _, err := n.AddRPE(dev); err != nil {
			return nil, err
		}
	}
	reg := rms.NewRegistry()
	if err := reg.AddNode(n); err != nil {
		return nil, err
	}
	tc, err := hdl.DefaultToolchain()
	if err != nil {
		return nil, err
	}
	mm, err := rms.NewMatchmaker(reg, tc)
	if err != nil {
		return nil, err
	}

	te := &tenantEngine{
		id:     id,
		tier:   tier,
		policy: policy,
		seed:   seed,
		reg:    reg,
		mm:     mm,
		jss:    jss.New(),
		// Tenant simulators are small (a handful of pending events);
		// the binary heap beats the timing wheel's fixed footprint at
		// thousands-of-tenants scale.
		sim:         sim.NewSimulator(sim.WithScheduler(sim.NewHeapQueue())),
		tasks:       make(map[string]*cpTask),
		bucket:      newTokenBucket(policy.RatePerSec, policy.Burst, nowNanos),
		costBudget:  cfg.CostBudgetUnits,
		sink:        cfg.Sink,
		sampleEvery: cfg.SampleEvery,
		stats:       TenantStats{Tenant: id, Tier: tier.String()},
	}
	if te.sink != nil {
		te.name = obs.Str(id)
		te.elemNames = make(map[*node.Element]obs.Name)
	}
	if cfg.Faults.Enabled() {
		rng := sim.NewRNG(seed).Split(faults.ScheduleStream)
		events, err := faults.Schedule(rng, cfg.Faults, []string{n.ID})
		if err != nil {
			return nil, err
		}
		te.faultEvents = events
	}
	return te, nil
}

// buildTask turns a validated wire TaskSpec into the paper's task tuple.
func (te *tenantEngine) buildTask(spec *TaskSpec) (*task.Task, error) {
	t := &task.Task{
		ID: spec.ID,
		Work: pe.Work{
			MInstructions:    spec.WorkMI,
			ParallelFraction: spec.Parallel,
			DataMB:           spec.DataMB,
		},
		EstimatedSeconds: spec.WorkMI / 1000,
	}
	if spec.DataMB > 0 {
		t.Inputs = []task.DataIn{{DataID: "in", SizeMB: spec.DataMB}}
		t.Outputs = []task.DataOut{{DataID: "out", SizeMB: spec.DataMB / 4}}
	}
	switch spec.Scenario {
	case "", "software":
		t.ExecReq = task.ExecReq{Scenario: pe.SoftwareOnly, Requirements: tenantReqs.software}
	case "softcore":
		t.ExecReq = task.ExecReq{Scenario: pe.PredeterminedHW, SoftcoreISA: "rvex-vliw", Requirements: tenantReqs.softcore}
	case "userhw":
		d, err := hdl.LookupIP(spec.Design)
		if err != nil {
			return nil, errWire(CodeInvalidTask, "task %q: %v", spec.ID, err)
		}
		t.ExecReq = task.ExecReq{Scenario: pe.UserDefinedHW, Requirements: tenantReqs.userHW, Design: d}
		t.Work.HWSpeedup = d.AccelFactor
	default:
		return nil, errWire(CodeInvalidTask, "task %q: unknown scenario %q", spec.ID, spec.Scenario)
	}
	return t, nil
}

// submit runs admission for one task: token-bucket quota, queue bound,
// task construction, and the jss validation/cost gate. On success the
// task is queued; every failure path is a counted rejection.
func (te *tenantEngine) submit(spec *TaskSpec, nowNanos int64, draining bool) Response {
	te.stats.Submitted++
	fail := func(err error) Response {
		te.stats.Rejected++
		return errorResponse(OpSubmit, err)
	}
	if draining {
		return fail(errWire(CodeDraining, "server is draining; submissions are closed"))
	}
	if _, dup := te.tasks[spec.ID]; dup {
		return fail(errWire(CodeInvalidTask, "task %q already exists", spec.ID))
	}
	if len(te.queue) >= te.policy.MaxQueue {
		te.stats.QuotaDenied++
		return fail(errWire(CodeQueueFull, "queue full (%d tasks, tier %s bound %d)", len(te.queue), te.tier, te.policy.MaxQueue))
	}
	if !te.bucket.take(nowNanos) {
		te.stats.QuotaDenied++
		return fail(errWire(CodeQuotaExceeded, "tenant %q is over its %s-tier admission rate", te.id, te.tier))
	}
	t, err := te.buildTask(spec)
	if err != nil {
		return fail(err)
	}
	g := task.NewGraph()
	if err := g.Add(t); err != nil {
		// %q because the graph error embeds the tenant-chosen task ID.
		return fail(errWire(CodeInvalidTask, "task %q: %q", spec.ID, err))
	}
	var qos jss.QoS
	if te.costBudget > 0 {
		remaining := te.costBudget - te.stats.CostUnits - te.quotedCost
		if remaining <= 0 {
			// The budget is spent (or fully quoted away): reject here
			// rather than via the jss gate, whose MaxCostUnits <= 0
			// means "uncapped" and would admit everything.
			te.stats.QuotaDenied++
			return fail(errWire(CodeQuotaExceeded, "tenant %q exhausted its cost budget %.2f", te.id, te.costBudget))
		}
		qos.MaxCostUnits = remaining
	}
	sub, err := te.jss.Submit(te.id, g, nil, qos, te.sim.Now())
	if err != nil {
		if ErrorCode(err) == CodeQuotaExceeded {
			te.stats.QuotaDenied++
		}
		return fail(err)
	}
	te.quotedCost += sub.QuotedCost

	ct := &cpTask{id: spec.ID, t: t, sub: sub, state: stateQueued, queuedAt: te.sim.Now()}
	te.queue = append(te.queue, ct)
	te.tasks[spec.ID] = ct
	te.stats.Accepted++
	te.stats.InFlight++
	te.emit(obs.KindQueued, ct, nil)
	return Response{OK: true, Op: OpSubmit, Tenant: te.id, TaskID: spec.ID, State: ct.state.String()}
}

// cancel removes a queued task. Terminal tasks report their state with
// OK=false and code unknown_task is reserved for IDs never seen.
func (te *tenantEngine) cancel(taskID string) Response {
	ct, ok := te.tasks[taskID]
	if !ok {
		return errorResponse(OpCancel, errWire(CodeUnknownTask, "tenant %q has no task %q", te.id, taskID))
	}
	if ct.state != stateQueued {
		resp := errorResponse(OpCancel, errWire(CodeBadRequest, "task %q is already %s", taskID, ct.state))
		resp.State = ct.state.String()
		return resp
	}
	for i, q := range te.queue {
		if q == ct {
			//reconlint:sanitized queue length is bounded by policy.MaxQueue at admission, so this removal copy is bounded
			te.queue = append(te.queue[:i], te.queue[i+1:]...)
			break
		}
	}
	ct.state = stateCanceled
	ct.doneAt = te.sim.Now()
	te.jss.Fail(ct.sub.ID, te.sim.Now(), "canceled by user")
	te.quotedCost -= ct.sub.QuotedCost
	te.settle(ct)
	te.stats.Canceled++
	te.stats.InFlight--
	return Response{OK: true, Op: OpCancel, Tenant: te.id, TaskID: taskID, State: ct.state.String()}
}

// status reports a task's lifecycle state.
func (te *tenantEngine) status(taskID string) Response {
	ct, ok := te.tasks[taskID]
	if !ok {
		return errorResponse(OpStatus, errWire(CodeUnknownTask, "tenant %q has no task %q", te.id, taskID))
	}
	return Response{OK: true, Op: OpStatus, Tenant: te.id, TaskID: taskID, State: ct.state.String()}
}

// snapshot returns the tenant's counters with the live queue depth.
func (te *tenantEngine) snapshot() TenantStats {
	s := te.stats
	s.VirtualSeconds = float64(te.sim.Now())
	return s
}

// run executes the queued tasks in order, each to a terminal state in
// virtual time, until the queue is empty.
func (te *tenantEngine) run() {
	for len(te.queue) > 0 {
		ct := te.queue[0]
		te.queue = te.queue[1:]
		te.schedule(ct, 0)
		// Run drains the attempt/retry/completion events this task put on
		// the tenant's simulator; no other task is in flight, so the
		// simulator is empty again when Run returns.
		if err := te.sim.Run(); err != nil {
			// Run only errors via Stop, which nothing here calls.
			panic(fmt.Sprintf("controlplane: tenant %q simulator: %v", te.id, err))
		}
	}
}

// schedule arms one execution attempt for ct after delay.
func (te *tenantEngine) schedule(ct *cpTask, delay sim.Time) {
	te.sim.After(delay, "attempt", func() {
		te.attempt(ct, te.sim.Now())
	})
}

// attempt places and executes ct once: match, lease, charge the
// reconfiguration/synthesis/execution time, and either complete at the
// end or abort at the first fault that strikes the window.
func (te *tenantEngine) attempt(ct *cpTask, now sim.Time) {
	cands, err := te.mm.Candidates(ct.t.ExecReq)
	if err != nil || len(cands) == 0 {
		te.evict(ct, now, "no feasible mapping on the tenant slice")
		return
	}
	// First-fit over the deterministic candidate order: the slice is
	// private and the engine runs one task at a time, so the first
	// candidate is free by construction.
	cand := cands[0]
	lease, err := te.mm.Allocate(cand, ct.t.ExecReq)
	if err != nil {
		te.evict(ct, now, err.Error())
		return
	}
	exec, err := lease.Estimator.EstimateSeconds(ct.t.Work)
	if err != nil {
		te.release(lease)
		te.evict(ct, now, err.Error())
		return
	}
	overhead := lease.ReconfigDelay + lease.CompactionDelay + sim.Time(lease.SynthesisSeconds)
	total := overhead + sim.Time(exec)

	te.emit(obs.KindDispatch, ct, cand.Elem)
	if lease.ReconfigDelay > 0 {
		te.emit(obs.KindReconfig, ct, cand.Elem)
	}

	kind := elementKind(cand)
	if strike, hit := te.faultWithin(now, now+total); hit {
		// The attempt dies at the strike: the element is released, and
		// the task retries (tier policy permitting) after backoff.
		te.sim.Schedule(strike, "fault-abort", func() {
			at := te.sim.Now()
			te.release(lease)
			te.emit(obs.KindFail, ct, cand.Elem)
			ct.attempts++
			ct.lastFaultAt = at
			te.stats.FaultAborts++
			if ct.attempts > te.policy.Retry.MaxRetries {
				te.evict(ct, at, "retries exhausted")
				return
			}
			te.stats.Retries++
			te.emit(obs.KindRetry, ct, nil)
			te.schedule(ct, sim.Time(te.policy.Retry.Delay(ct.attempts)))
		})
		return
	}
	te.sim.Schedule(now+total, "complete", func() {
		at := te.sim.Now()
		te.release(lease)
		ct.state = stateDone
		ct.doneAt = at
		te.jss.ChargeFor(ct.sub, exec, kind)
		te.jss.TaskDoneFor(ct.sub, at)
		te.quotedCost -= ct.sub.QuotedCost
		te.stats.CostUnits += ct.sub.FinalCost
		te.settle(ct)
		te.stats.Completed++
		te.stats.InFlight--
		if ct.attempts > 0 {
			te.stats.RepairedTasks++
			te.stats.RepairSeconds += float64(at - ct.lastFaultAt)
		}
		te.doneLog = append(te.doneLog, ct.id)
		if len(te.doneLog) > maxDoneLog {
			te.doneLog = te.doneLog[len(te.doneLog)-maxDoneLog:]
		}
		te.emit(obs.KindComplete, ct, cand.Elem)
		te.sample()
	})
}

// release frees the lease's element.
func (te *tenantEngine) release(l *rms.Lease) {
	// Release can only fail on double release, which the call sites
	// exclude by construction.
	if err := l.Release(); err != nil {
		panic(fmt.Sprintf("controlplane: tenant %q lease: %v", te.id, err))
	}
}

// evict terminates ct without completion.
func (te *tenantEngine) evict(ct *cpTask, now sim.Time, reason string) {
	ct.state = stateEvicted
	ct.doneAt = now
	te.jss.Fail(ct.sub.ID, now, reason)
	te.quotedCost -= ct.sub.QuotedCost
	te.settle(ct)
	te.stats.Evicted++
	te.stats.InFlight--
	te.emit(obs.KindLost, ct, nil)
}

// settle releases what a terminal task no longer needs, once its jss
// accounting is final: the submission leaves jss, and the record drops the
// task tuple and the submission, so neither outlives the task.
func (te *tenantEngine) settle(ct *cpTask) {
	te.jss.Release(ct.sub)
	ct.t, ct.sub = nil, nil
}

// faultWithin returns the first crash/SEU/partition strike in (from, to],
// consuming every fault event with time ≤ to. Virtual time is monotone
// per tenant, so a single cursor suffices.
func (te *tenantEngine) faultWithin(from, to sim.Time) (sim.Time, bool) {
	for te.faultIdx < len(te.faultEvents) {
		ev := te.faultEvents[te.faultIdx]
		if ev.Time > to {
			return 0, false
		}
		te.faultIdx++
		if ev.Time <= from {
			continue
		}
		switch ev.Kind {
		case faults.KindNodeCrash, faults.KindSEU:
			return ev.Time, true
		case faults.KindLinkDegrade:
			if ev.Partition {
				return ev.Time, true
			}
		}
	}
	return 0, false
}

// elementKind classifies a candidate's element for cost accounting.
func elementKind(c rms.Candidate) capability.Kind {
	if c.Core != nil || c.Fallback {
		return capability.KindSoftcore
	}
	return c.Elem.Kind
}

// emit sends one lifecycle event to the sink (no-op without one).
func (te *tenantEngine) emit(kind obs.Kind, ct *cpTask, elem *node.Element) {
	if te.sink == nil {
		return
	}
	var en obs.Name
	if elem != nil {
		var ok bool
		if en, ok = te.elemNames[elem]; !ok {
			en = obs.Str(elem.ID)
			te.elemNames[elem] = en
		}
	}
	te.sink.Emit(obs.Event{
		Time:    te.sim.Now(),
		Kind:    kind,
		TaskID:  obs.Str(ct.id),
		Node:    te.name,
		Element: en,
	})
}

// sample emits a per-tenant gauge sample every sampleEvery completions.
func (te *tenantEngine) sample() {
	if te.sink == nil || te.sampleEvery <= 0 {
		return
	}
	te.sinceSample++
	if te.sinceSample < te.sampleEvery {
		return
	}
	te.sinceSample = 0
	s := obs.Sample{
		Time:       te.sim.Now(),
		QueueDepth: len(te.queue),
		Completed:  te.stats.Completed,
	}
	for _, n := range te.reg.Nodes() {
		for _, e := range n.RPEs() {
			st := e.Fabric.State()
			s.FabricRegions += len(st.Configurations)
			s.FabricSlicesUsed += st.TotalSlices - st.AvailableSlices
			s.FabricSlicesTotal += st.TotalSlices
		}
	}
	te.sink.Sample(s)
}
