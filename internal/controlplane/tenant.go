package controlplane

import (
	"fmt"
	"slices"

	"repro/internal/capability"
	"repro/internal/faults"
	"repro/internal/hdl"
	"repro/internal/jss"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/pe"
	"repro/internal/rms"
	"repro/internal/sched"
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
	tenantCounters
	// VirtualSeconds is the tenant engine's virtual clock; CostUnits the
	// accumulated execution cost at the jss cost rates (jss.CostRate).
	VirtualSeconds float64 `json:"virtual_seconds"`
	CostUnits      float64 `json:"cost_units"`
}

// tenantCounters are the counters of TenantStats: what a tenant stores.
// Its name and tier, clock and cost are the tenant's own fields, which
// snapshot adds.
type tenantCounters struct {
	// Submitted counts every submit request received for the tenant;
	// Accepted the ones past admission (Accepted = Submitted - Rejected).
	Submitted int `json:"submitted"`
	Accepted  int `json:"accepted"`
	// Rejected counts every admission denial (quota, queue bound,
	// invalid task, draining); QuotaDenied is the subset denied by a
	// resource limit — admission rate, queue bound or a full task
	// table — as opposed to malformed or mistimed requests.
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
}

// taskState is a control-plane task's lifecycle state.
type taskState uint8

const (
	stateQueued taskState = iota
	stateDone
	stateEvicted
	stateCanceled
)

var taskStateNames = [...]string{
	stateQueued: "queued", stateDone: "done",
	stateEvicted: "evicted", stateCanceled: "canceled",
}

func (s taskState) String() string {
	if int(s) < len(taskStateNames) {
		return taskStateNames[s]
	}
	return fmt.Sprintf("taskState(%d)", int(s))
}

// tenantEngine is one tenant's deterministic slice of the control plane:
// a vFPGA slice (a private registry/matchmaker over the tier's device
// set) and a virtual clock work executes under. Everything the engine
// does is a pure function of (tenant seed, op sequence): it draws no
// wall-clock time and no global randomness, which is what makes
// per-tenant results independent of the shard count and of
// cross-tenant interleaving.
//
// A tenantEngine is reached only under its shard's lock; it needs no
// lock of its own. It keeps only what is its own: the tier's policy is
// the server's, shared by pointer.
type tenantEngine struct {
	id     string
	tier   Tier
	policy *TierPolicy

	reg *rms.Registry
	mm  *rms.Matchmaker
	// now is the tenant's virtual clock. It moves only while a task
	// executes, to the time of each strike, retry and completion.
	now sim.Time

	// strikes is nil unless the server injects faults; see tenantStrikes.
	strikes *tenantStrikes

	// queue holds, in order, the tasks a paused server accepted; a
	// running server executes each accepted task from its shard's slot
	// instead (shard.submitLocked). run empties the queue and drops its
	// array.
	queue []task.Task
	// tasks holds the state of every task the tenant ever accepted:
	// what status, cancel and the duplicate-ID check read back. It is
	// made with the first task, so a tenant that never has one holds none.
	tasks *taskTable

	bucket tokenBucket

	// stats and cost accumulate the tenant's TenantStats; snapshot adds
	// the name, tier and clock.
	stats tenantCounters
	cost  float64

	// obs is nil without a sink, which disables emission entirely.
	obs *tenantObs
}

// tenantStrikes is a faulty tenant's strike cursor: the slice's fault
// timeline, generated as faultWithin reads it (virtual time is
// monotone), and the first strike read and not yet consumed. Only node
// crashes, SEUs and link partitions strike, that is, abort an attempt.
type tenantStrikes struct {
	cur  *faults.Cursor
	next sim.Time
	held bool
}

// tenantObs is a tenant's observability state, made only when the
// server has a sink.
type tenantObs struct {
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

// newTenantEngine builds a tenant's slice for its tier under the
// server's policy for that tier. The clock argument seeds the admission
// bucket's refill timeline.
func newTenantEngine(id string, tier Tier, policy *TierPolicy, seed uint64, cfg *Config, nowNanos int64) (*tenantEngine, error) {
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
		reg:    reg,
		mm:     mm,
		bucket: newTokenBucket(policy.Burst, nowNanos),
	}
	if cfg.Sink != nil {
		te.obs = &tenantObs{
			sink:        cfg.Sink,
			name:        obs.Str(id),
			elemNames:   make(map[*node.Element]obs.Name),
			sampleEvery: cfg.SampleEvery,
		}
	}
	if cfg.Faults.Enabled() {
		cur, err := faults.NewCursor(sim.NewRNG(seed).Split(faults.ScheduleStream), cfg.Faults, []string{n.ID})
		if err != nil {
			return nil, err
		}
		te.strikes = &tenantStrikes{cur: cur}
	}
	return te, nil
}

// buildTask turns a validated wire TaskSpec into the paper's task tuple,
// written over *t.
func (te *tenantEngine) buildTask(spec *TaskSpec, t *task.Task) error {
	*t = task.Task{
		ID: spec.ID,
		Work: pe.Work{
			MInstructions:    spec.WorkMI,
			ParallelFraction: spec.Parallel,
			DataMB:           spec.DataMB,
		},
		EstimatedSeconds: spec.WorkMI / 1000,
	}
	switch spec.Scenario {
	case "", "software":
		t.ExecReq = task.ExecReq{Scenario: pe.SoftwareOnly, Requirements: tenantReqs.software}
	case "softcore":
		t.ExecReq = task.ExecReq{Scenario: pe.PredeterminedHW, SoftcoreISA: "rvex-vliw", Requirements: tenantReqs.softcore}
	case "userhw":
		d, err := hdl.LookupIP(spec.Design)
		if err != nil {
			return errWire(CodeInvalidTask, "task %q: %v", spec.ID, err)
		}
		t.ExecReq = task.ExecReq{Scenario: pe.UserDefinedHW, Requirements: tenantReqs.userHW, Design: d}
		t.Work.HWSpeedup = d.AccelFactor
	default:
		return errWire(CodeInvalidTask, "task %q: unknown scenario %q", spec.ID, spec.Scenario)
	}
	return nil
}

// submit runs admission for one task: queue bound, token-bucket quota,
// and task construction and validation. On success it builds the task
// tuple into *t and records the task as queued; the caller then runs
// it or queues it. Every failure path is a counted rejection.
func (te *tenantEngine) submit(spec *TaskSpec, nowNanos int64, draining bool, t *task.Task) Response {
	te.stats.Submitted++
	fail := func(err error) Response {
		te.stats.Rejected++
		return errorResponse(OpSubmit, err)
	}
	if draining {
		return fail(errWire(CodeDraining, "server is draining; submissions are closed"))
	}
	if _, dup := te.tasks.state(spec.ID); dup {
		return fail(errWire(CodeInvalidTask, "task %q already exists", spec.ID))
	}
	if len(te.queue) >= te.policy.MaxQueue {
		te.stats.QuotaDenied++
		return fail(errWire(CodeQueueFull, "queue full (%d tasks, tier %s bound %d)", len(te.queue), te.tier, te.policy.MaxQueue))
	}
	if !te.bucket.take(te.policy.RatePerSec, te.policy.Burst, nowNanos) {
		te.stats.QuotaDenied++
		return fail(errWire(CodeQuotaExceeded, "tenant %q is over its %s-tier admission rate", te.id, te.tier))
	}
	if err := te.buildTask(spec, t); err != nil {
		return fail(err)
	}
	if err := task.ValidateForGraph(t); err != nil {
		// %q because the error embeds the tenant-chosen task ID.
		return fail(errWire(CodeInvalidTask, "task %q: %q", spec.ID, err))
	}
	if te.tasks == nil {
		te.tasks = new(taskTable)
	}
	if !te.tasks.add(spec.ID, stateQueued) {
		te.stats.QuotaDenied++
		return fail(errWire(CodeQuotaExceeded, "tenant %q has filled its task table with 4 GiB of task IDs", te.id))
	}
	te.stats.Accepted++
	te.stats.InFlight++
	te.emit(obs.KindQueued, spec.ID, nil)
	return Response{OK: true, Op: OpSubmit, Tenant: te.id, TaskID: spec.ID, State: stateQueued.String()}
}

// cancel removes a queued task. Terminal tasks report their state with
// OK=false and code unknown_task is reserved for IDs never seen.
func (te *tenantEngine) cancel(taskID string) Response {
	st, ok := te.tasks.state(taskID)
	if !ok {
		return errorResponse(OpCancel, errWire(CodeUnknownTask, "tenant %q has no task %q", te.id, taskID))
	}
	if st != stateQueued {
		resp := errorResponse(OpCancel, errWire(CodeBadRequest, "task %q is already %s", taskID, st))
		resp.State = st.String()
		return resp
	}
	// A queued task is in the queue: a task that runs reaches a terminal
	// state before its submit answers.
	i := slices.IndexFunc(te.queue, func(t task.Task) bool { return t.ID == taskID })
	// Delete clears the vacated tail slot, so the backing array does not
	// keep the canceled task alive.
	te.queue = slices.Delete(te.queue, i, i+1)
	te.settle(taskID, stateCanceled)
	te.stats.Canceled++
	return Response{OK: true, Op: OpCancel, Tenant: te.id, TaskID: taskID, State: stateCanceled.String()}
}

// status reports a task's lifecycle state.
func (te *tenantEngine) status(taskID string) Response {
	st, ok := te.tasks.state(taskID)
	if !ok {
		return errorResponse(OpStatus, errWire(CodeUnknownTask, "tenant %q has no task %q", te.id, taskID))
	}
	return Response{OK: true, Op: OpStatus, Tenant: te.id, TaskID: taskID, State: st.String()}
}

// snapshot returns the tenant's counters with its name, tier, clock and
// cost.
func (te *tenantEngine) snapshot() TenantStats {
	return TenantStats{
		Tenant:         te.id,
		Tier:           te.tier.String(),
		tenantCounters: te.stats,
		VirtualSeconds: float64(te.now),
		CostUnits:      te.cost,
	}
}

// run executes the queued tasks in order, each to a terminal state in
// virtual time, until the queue is empty, and then drops the queue's
// array, so a drained backlog leaves nothing behind.
func (te *tenantEngine) run(opts *[]sched.Option) {
	for len(te.queue) > 0 {
		t := te.queue[0]
		te.queue[0] = task.Task{} // the backing array must not keep a settled task alive
		te.queue = te.queue[1:]
		te.execute(&t, opts)
	}
	te.queue = nil
}

// execute runs t to a terminal state. Each attempt places t through
// sched.Place, first-fit and with no link (the slice is private and runs
// one task at a time, so the first candidate is free by construction),
// and charges the reconfiguration, synthesis and execution time; it
// either completes at the end or aborts at the first fault that strikes
// the window, and an aborted task attempts again after the tier's
// backoff until its retries run out. A task that completes after aborts
// adds the time since its last abort to the repair record. opts is the
// shard's scratch option slice.
func (te *tenantEngine) execute(t *task.Task, opts *[]sched.Option) {
	aborts := 0
	var lastAbort sim.Time
	for {
		p, ok := sched.Place(te.mm, &t.ExecReq, t.Work, nil, nil, opts)
		if !ok {
			te.evict(t.ID)
			return
		}
		lease, exec := p.Lease, p.ExecSeconds
		cand, total := lease.Cand, sim.Time(p.SpanSeconds)

		te.emit(obs.KindDispatch, t.ID, cand.Elem)
		if lease.ReconfigDelay > 0 {
			te.emit(obs.KindReconfig, t.ID, cand.Elem)
		}

		strike, hit := te.faultWithin(te.now, te.now+total)
		if !hit {
			te.now += total
			te.release(&lease)
			te.cost += exec * jss.CostRate(lease.Estimator.Kind())
			te.settle(t.ID, stateDone)
			te.stats.Completed++
			if aborts > 0 {
				te.stats.RepairedTasks++
				te.stats.RepairSeconds += float64(te.now - lastAbort)
			}
			te.emit(obs.KindComplete, t.ID, cand.Elem)
			te.sample()
			return
		}
		// The attempt dies at the strike: the element is released, and
		// the task retries (tier policy permitting) after backoff.
		te.now = strike
		te.release(&lease)
		te.emit(obs.KindFail, t.ID, cand.Elem)
		aborts++
		lastAbort = strike
		te.stats.FaultAborts++
		if aborts > te.policy.Retry.MaxRetries {
			te.evict(t.ID)
			return
		}
		te.stats.Retries++
		te.emit(obs.KindRetry, t.ID, nil)
		te.now += sim.Time(te.policy.Retry.Delay(aborts))
	}
}

// release frees the lease's element.
func (te *tenantEngine) release(l *rms.Lease) {
	// Release can only fail on double release, which the call sites
	// exclude by construction.
	if err := l.Release(); err != nil {
		panic(fmt.Sprintf("controlplane: tenant %q lease: %v", te.id, err))
	}
}

// evict terminates a task without completion.
func (te *tenantEngine) evict(id string) {
	te.settle(id, stateEvicted)
	te.stats.Evicted++
	te.emit(obs.KindLost, id, nil)
}

// settle records a task's terminal state: only its record in tasks
// outlives the task.
func (te *tenantEngine) settle(id string, st taskState) {
	te.tasks.set(id, st)
	te.stats.InFlight--
}

// faultWithin returns the first strike in (from, to], consuming every
// strike with time ≤ to. It reads the timeline up to the first strike
// past to, which it holds for the next call.
func (te *tenantEngine) faultWithin(from, to sim.Time) (sim.Time, bool) {
	s := te.strikes
	if s == nil {
		return 0, false
	}
	for {
		if !s.held {
			ev, ok := s.cur.Next()
			if !ok {
				return 0, false
			}
			if ev.Kind != faults.KindNodeCrash && ev.Kind != faults.KindSEU && (ev.Kind != faults.KindLinkDegrade || !ev.Partition) {
				continue
			}
			s.next, s.held = ev.Time, true
		}
		if s.next > to {
			return 0, false
		}
		s.held = false
		if s.next > from {
			return s.next, true
		}
	}
}

// emit sends one lifecycle event to the sink (no-op without one).
func (te *tenantEngine) emit(kind obs.Kind, taskID string, elem *node.Element) {
	o := te.obs
	if o == nil {
		return
	}
	var en obs.Name
	if elem != nil {
		var ok bool
		if en, ok = o.elemNames[elem]; !ok {
			en = obs.Str(elem.ID)
			o.elemNames[elem] = en
		}
	}
	o.sink.Emit(obs.Event{
		Time:    te.now,
		Kind:    kind,
		TaskID:  obs.Str(taskID),
		Node:    o.name,
		Element: en,
	})
}

// sample emits a per-tenant gauge sample every sampleEvery completions.
func (te *tenantEngine) sample() {
	o := te.obs
	if o == nil || o.sampleEvery <= 0 {
		return
	}
	o.sinceSample++
	if o.sinceSample < o.sampleEvery {
		return
	}
	o.sinceSample = 0
	s := obs.Sample{
		Time:       te.now,
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
	o.sink.Sample(s)
}
