// Package jss implements the paper's Job Submission System and the user
// services of Fig. 9: application submission, per-submission status,
// quality-of-service attributes (cost, deadline, monitoring), progress
// events, and cost accounting. "The minimum level of services required by a
// user is to submit his application tasks and get results. But more
// services can be added to satisfy the Quality of Service requirements."
// The JSS also runs each application it admits: it says which tasks are
// ready, while the grid engine's RMS places them.
package jss

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/capability"
	"repro/internal/sim"
	"repro/internal/task"
)

// QoS are the optional service attributes a user attaches to a submission.
type QoS struct {
	// DeadlineSeconds, when positive, asks for completion within this many
	// seconds of submission; the response reports whether it was met.
	DeadlineSeconds float64
	// MaxCostUnits, when positive, caps the accepted cost quote; dearer
	// submissions are rejected up front.
	MaxCostUnits float64
	// Monitor subscribes the user to per-task progress events.
	Monitor bool
}

// Status is a submission's lifecycle state.
type Status int

// Submission states.
const (
	StatusQueued Status = iota
	StatusRunning
	StatusDone
	StatusFailed
	StatusRejected
)

var statusNames = map[Status]string{
	StatusQueued: "queued", StatusRunning: "running", StatusDone: "done",
	StatusFailed: "failed", StatusRejected: "rejected",
}

// String returns the state name.
func (s Status) String() string {
	if n, ok := statusNames[s]; ok {
		return n
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Event is one monitoring notification (Fig. 9's monitoring service).
type Event struct {
	Time   sim.Time
	TaskID string
	What   string
}

// Submission is one user application handed to the grid: a task graph and
// optionally a Seq/Par program over it.
type Submission struct {
	ID      string
	User    string
	Graph   *task.Graph
	Program *task.Program // nil: execute by graph dependencies
	QoS     QoS

	SubmittedAt sim.Time
	CompletedAt sim.Time
	Status      Status
	// QuotedCost is the estimate at submission; FinalCost accumulates
	// actual charges.
	QuotedCost float64
	FinalCost  float64
	// Events holds monitoring notifications when QoS.Monitor is set.
	Events []Event
	// DeadlineMet reports the deadline outcome once completed.
	DeadlineMet bool
	// FailureReason explains StatusFailed/StatusRejected.
	FailureReason string

	remaining int
	// waiting counts each blocked task's unfinished predecessors and next
	// lists each task's successors, the unblock rule Start derives; both
	// stay nil when no task waits.
	waiting map[string]int
	next    map[string][]string
}

// CostRate is the per-execution-second price of a processing-element kind,
// the cost service of Fig. 9.
func CostRate(kind capability.Kind) float64 {
	switch kind {
	case capability.KindGPP:
		return 1.0
	case capability.KindSoftcore:
		return 1.5
	case capability.KindGPU:
		return 2.0
	case capability.KindFPGA:
		return 3.0
	}
	return 1.0
}

// QuoteCost estimates a submission's cost from t_estimated and the
// requested element kinds.
func QuoteCost(g *task.Graph) float64 {
	var total float64
	for _, id := range g.Order() {
		t, _ := g.Get(id)
		total += t.EstimatedSeconds * CostRate(t.ExecReq.Requirements.Kind())
	}
	return total
}

// JSS admits, starts and tracks submissions, and runs each one's unblock
// rule. It keeps no queue: the grid engine starts each submission it
// admits, queues the tasks the JSS reports ready and reports each
// finished task back.
type JSS struct {
	nextID int
	// all is made at the first Submit; reads work on a nil map, so a JSS
	// that is never submitted to holds no map.
	all map[string]*Submission
}

// New returns an empty job submission system.
func New() *JSS {
	return &JSS{}
}

// Submit validates and records an application, queued until Start runs
// it. Rejections (invalid graphs, programs that name a task the graph
// lacks or leave one of its tasks out, over-budget quotes, streaming
// designs) return an error and a rejected submission record.
func (j *JSS) Submit(user string, g *task.Graph, prog *task.Program, qos QoS, now sim.Time) (*Submission, error) {
	if j.all == nil {
		j.all = make(map[string]*Submission)
	}
	j.nextID++
	sub := &Submission{
		ID:          fmt.Sprintf("sub-%04d", j.nextID),
		User:        user,
		Graph:       g,
		Program:     prog,
		QoS:         qos,
		SubmittedAt: now,
		Status:      StatusQueued,
	}
	if user == "" {
		return j.reject(sub, "submission without a user")
	}
	if g == nil || g.Len() == 0 {
		return j.reject(sub, "submission without tasks")
	}
	if err := g.Validate(); err != nil {
		return j.reject(sub, err.Error())
	}
	if prog != nil {
		if err := prog.Validate(); err != nil {
			return j.reject(sub, err.Error())
		}
		ids := prog.TaskIDs()
		for _, id := range ids {
			if _, ok := g.Get(id); !ok {
				return j.reject(sub, fmt.Sprintf("program references unknown task %s", id))
			}
		}
		// Validate refused repeated tasks, so a program naming fewer tasks
		// than the graph holds leaves one out, which would never run.
		if len(ids) < g.Len() {
			for _, id := range g.Order() {
				if !slices.Contains(ids, id) {
					return j.reject(sub, fmt.Sprintf("program leaves out task %s", id))
				}
			}
		}
	}
	for _, id := range g.Order() {
		t, _ := g.Get(id)
		if d := t.ExecReq.Design; d != nil && d.Streaming {
			return j.reject(sub, fmt.Sprintf("task %s uses a streaming design; streaming applications are future work", id))
		}
	}
	sub.QuotedCost = QuoteCost(g)
	if qos.MaxCostUnits > 0 && sub.QuotedCost > qos.MaxCostUnits {
		return j.reject(sub, fmt.Sprintf("quote %.2f exceeds cost cap %.2f", sub.QuotedCost, qos.MaxCostUnits))
	}
	sub.remaining = g.Len()
	j.all[sub.ID] = sub
	return sub, nil
}

// reject records a refused submission and returns it with the error the
// caller reports, "jss: <reason>". A named method rather than a closure
// inside Submit so the accept path does not allocate a closure it never
// calls.
func (j *JSS) reject(sub *Submission, reason string) (*Submission, error) {
	sub.Status = StatusRejected
	sub.FailureReason = reason
	j.all[sub.ID] = sub
	return sub, errors.New("jss: " + reason)
}

// Start marks an admitted submission running and derives its unblock
// rule once: under a program each batch of the plan waits for the batch
// before it (Fig. 8), otherwise each task waits for the producers of its
// inputs (Fig. 7). It returns the tasks that are ready now, in plan
// order or graph order. Submit has validated both: every task a program
// names, and every producer a graph task names, is in the graph.
func (j *JSS) Start(s *Submission) []string {
	s.Status = StatusRunning
	if prog := s.Program; prog != nil {
		plan := prog.Plan()
		for k := 1; k < len(plan); k++ {
			for _, id := range plan[k] {
				s.block(id, plan[k-1])
			}
		}
		return plan[0]
	}
	var ready []string
	for _, id := range s.Graph.Order() {
		if deps := s.Graph.Dependencies(id); len(deps) > 0 {
			s.block(id, deps)
		} else {
			ready = append(ready, id)
		}
	}
	return ready
}

// block makes task id wait for every task in after.
func (s *Submission) block(id string, after []string) {
	if s.waiting == nil {
		s.waiting, s.next = make(map[string]int), make(map[string][]string)
	}
	s.waiting[id] = len(after)
	for _, p := range after {
		s.next[p] = append(s.next[p], id)
	}
}

// Submissions returns every known submission sorted by ID.
func (j *JSS) Submissions() []*Submission {
	out := make([]*Submission, 0, len(j.all))
	for _, s := range j.all {
		out = append(out, s)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// Notify records a monitoring event for a submission (no-op unless the
// user requested monitoring).
func (j *JSS) Notify(s *Submission, now sim.Time, taskID, what string) {
	if !s.QoS.Monitor {
		return
	}
	s.Events = append(s.Events, Event{Time: now, TaskID: taskID, What: what})
}

// Charge adds actual cost for executed work.
func (j *JSS) Charge(s *Submission, seconds float64, kind capability.Kind) {
	s.FinalCost += seconds * CostRate(kind)
}

// TaskDone reports that task id of a started submission finished. A
// running submission counts it, and completes once its last task has,
// recording the deadline outcome; a completed submission keeps no
// unblock rule, since every task has run. Then ready is called, in
// insertion order, with each successor of id that no longer waits on
// anything, even after Fail: the rest of a failed application still
// runs.
func (j *JSS) TaskDone(s *Submission, id string, now sim.Time, ready func(id string)) {
	if s.Status == StatusRunning {
		s.remaining--
		if s.remaining == 0 {
			s.Status = StatusDone
			s.CompletedAt = now
			elapsed := float64(now - s.SubmittedAt)
			s.DeadlineMet = s.QoS.DeadlineSeconds <= 0 || elapsed <= s.QoS.DeadlineSeconds
			s.waiting, s.next = nil, nil
			return
		}
	}
	for _, next := range s.next[id] {
		s.waiting[next]--
		if s.waiting[next] == 0 {
			ready(next)
		}
	}
}

// Fail marks a submission failed with a reason.
func (j *JSS) Fail(s *Submission, now sim.Time, reason string) {
	s.Status = StatusFailed
	s.CompletedAt = now
	s.FailureReason = reason
}

// Response is the user-facing answer to a status query (Fig. 9: "a user is
// able to submit his/her queries and get a response"). It is a snapshot —
// safe to hand across the service boundary without exposing live state.
type Response struct {
	SubmissionID  string
	User          string
	Status        Status
	SubmittedAt   sim.Time
	CompletedAt   sim.Time
	QuotedCost    float64
	FinalCost     float64
	DeadlineMet   bool
	FailureReason string
	TasksTotal    int
	TasksDone     int
	Events        []Event
}

// Query answers a user's status request for a submission.
func (j *JSS) Query(subID string) (Response, error) {
	s, ok := j.all[subID]
	if !ok {
		return Response{}, fmt.Errorf("jss: unknown submission %s", subID)
	}
	total := 0
	if s.Graph != nil {
		total = s.Graph.Len()
	}
	return Response{
		SubmissionID:  s.ID,
		User:          s.User,
		Status:        s.Status,
		SubmittedAt:   s.SubmittedAt,
		CompletedAt:   s.CompletedAt,
		QuotedCost:    s.QuotedCost,
		FinalCost:     s.FinalCost,
		DeadlineMet:   s.DeadlineMet,
		FailureReason: s.FailureReason,
		TasksTotal:    total,
		TasksDone:     total - s.remaining,
		//reconlint:sanitized Events are appended by the engine's own lifecycle transitions, never by tenant input, so this snapshot copy is bounded
		Events: append([]Event(nil), s.Events...),
	}, nil
}
