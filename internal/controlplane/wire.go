package controlplane

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
)

// The wire protocol is line-delimited JSON over TCP or a unix socket: one
// request object per line in, one response object per line out, in order.
// It is deliberately schema-light — a tenant needs nothing beyond a JSON
// encoder — and every malformed input maps to an error response with a
// stable code, never to a dropped connection or a panic (the decoder is
// fuzzed on that contract).

// Wire operation names.
const (
	OpSubmit   = "submit"
	OpStatus   = "status"
	OpCancel   = "cancel"
	OpStats    = "stats"
	OpDrain    = "drain"
	OpPause    = "pause"
	OpResume   = "resume"
	OpDump     = "dump"
	OpPing     = "ping"
	OpShutdown = "shutdown"
)

// Wire error codes. Codes are stable strings; prose in Response.Error may
// change freely.
const (
	CodeBadRequest    = "bad_request"
	CodeOversized     = "oversized"
	CodeUnknownOp     = "unknown_op"
	CodeUnknownTier   = "unknown_tier"
	CodeInvalidTask   = "invalid_task"
	CodeUnknownTenant = "unknown_tenant"
	CodeUnknownTask   = "unknown_task"
	CodeTierConflict  = "tier_conflict"
	CodeQuotaExceeded = "quota_exceeded"
	CodeQueueFull     = "queue_full"
	CodeDraining      = "draining"
	CodeInternal      = "internal"
)

// MaxRequestBytes is the default request-line size cap. A line longer
// than the cap is rejected with CodeOversized before JSON decoding.
const MaxRequestBytes = 64 * 1024

// Per-field semantic bounds. The request-size cap bounds the message,
// not the meaning: a 40-byte request carrying work_mi=9e18 is
// syntactically tiny and semantically a denial of service, so every
// tenant-controlled magnitude gets its own ceiling, rejected with a
// stable wire code at decode time (the wiretaint analyzer proves
// nothing unbounded slips past these).
const (
	// MaxNameBytes bounds tenant names and task IDs.
	MaxNameBytes = 256
	// MaxTaskWorkMI bounds a task's demand (a million seconds of work
	// on the reference GPP — far beyond any sane request, small enough
	// that virtual-time arithmetic stays comfortably finite).
	MaxTaskWorkMI = 1e9
	// MaxTaskDataMB bounds a task's payload descriptor (1 TB).
	MaxTaskDataMB = 1e6
)

// TaskSpec is the wire description of one task: architecture-neutral
// demand plus the scenario selecting the paper's abstraction level.
type TaskSpec struct {
	ID string `json:"id"`
	// WorkMI is the demand in millions of instructions; Parallel the
	// parallelizable fraction in [0,1]; DataMB the payload size.
	WorkMI   float64 `json:"work_mi"`
	Parallel float64 `json:"parallel,omitempty"`
	DataMB   float64 `json:"data_mb,omitempty"`
	// Scenario is "software" (default), "softcore", or "userhw".
	Scenario string `json:"scenario,omitempty"`
	// Design names the IP-library design for userhw tasks.
	Design string `json:"design,omitempty"`
}

// Request is one wire request.
type Request struct {
	Op     string    `json:"op"`
	Tenant string    `json:"tenant,omitempty"`
	Tier   string    `json:"tier,omitempty"`
	Task   *TaskSpec `json:"task,omitempty"`
	TaskID string    `json:"task_id,omitempty"`
}

// Response is one wire response.
type Response struct {
	OK     bool   `json:"ok"`
	Op     string `json:"op,omitempty"`
	Code   string `json:"code,omitempty"`
	Error  string `json:"error,omitempty"`
	Tenant string `json:"tenant,omitempty"`
	TaskID string `json:"task_id,omitempty"`
	// State is the task lifecycle state for submit/status/cancel.
	State string `json:"state,omitempty"`
	// Stats carries per-tenant counters for OpStats with a tenant, and
	// Tenants the full sorted roster for OpStats without one.
	Stats   *TenantStats  `json:"stats,omitempty"`
	Tenants []TenantStats `json:"tenants,omitempty"`
	// Dump carries the OpDump state snapshot.
	Dump string `json:"dump,omitempty"`
}

// wireError is a decode/validation failure with its wire code.
type wireError struct {
	code string
	msg  string
}

func (e *wireError) Error() string { return e.msg }

// errWire builds a wireError.
func errWire(code, format string, args ...any) error {
	return &wireError{code: code, msg: fmt.Sprintf(format, args...)}
}

// ErrorCode maps an error to its wire code: wireErrors carry their own,
// and anything else is internal.
func ErrorCode(err error) string {
	var we *wireError
	if errors.As(err, &we) {
		return we.code
	}
	if err != nil {
		return CodeInternal
	}
	return ""
}

// errorResponse renders err as a wire response.
func errorResponse(op string, err error) Response {
	return Response{Op: op, Code: ErrorCode(err), Error: err.Error()}
}

// validOps is the decoder's operation whitelist.
var validOps = map[string]bool{
	OpSubmit: true, OpStatus: true, OpCancel: true, OpStats: true,
	OpDrain: true, OpPause: true, OpResume: true, OpDump: true,
	OpPing: true, OpShutdown: true,
}

// wireScenarios are the scenario names a TaskSpec may carry. The
// device-specific scenario needs a user bitstream, which the wire format
// does not transport; it is rejected as an unknown scenario.
var wireScenarios = map[string]bool{"": true, "software": true, "softcore": true, "userhw": true}

// DecodeRequest parses and validates one request line under the given
// size cap (maxBytes ≤ 0 selects MaxRequestBytes). It never panics:
// malformed JSON, oversized payloads, unknown operations, unknown tiers,
// non-finite numbers, and invalid task specs all return an error whose
// ErrorCode is a stable wire code.
func DecodeRequest(line []byte, maxBytes int) (Request, error) {
	if maxBytes <= 0 {
		maxBytes = MaxRequestBytes
	}
	var req Request
	if len(line) > maxBytes {
		return req, errWire(CodeOversized, "request of %d bytes exceeds the %d-byte cap", len(line), maxBytes)
	}
	if err := json.Unmarshal(line, &req); err != nil {
		return req, errWire(CodeBadRequest, "malformed request: %v", err)
	}
	if !validOps[req.Op] {
		return req, errWire(CodeUnknownOp, "unknown op %q", req.Op)
	}
	if len(req.Tenant) > MaxNameBytes {
		return req, errWire(CodeBadRequest, "tenant name longer than %d bytes", MaxNameBytes)
	}
	if len(req.TaskID) > MaxNameBytes {
		return req, errWire(CodeBadRequest, "task_id longer than %d bytes", MaxNameBytes)
	}
	if _, err := ParseTier(req.Tier); err != nil {
		return req, errWire(CodeUnknownTier, "unknown tier %q", req.Tier)
	}
	switch req.Op {
	case OpSubmit:
		if req.Tenant == "" {
			return req, errWire(CodeBadRequest, "submit without a tenant")
		}
		if req.Task == nil {
			return req, errWire(CodeBadRequest, "submit without a task")
		}
		if err := req.Task.Validate(); err != nil {
			return req, err
		}
	case OpStatus, OpCancel:
		if req.Tenant == "" || req.TaskID == "" {
			return req, errWire(CodeBadRequest, "%s needs tenant and task_id", req.Op)
		}
	}
	return req, nil
}

// Validate checks a wire task spec: a non-empty bounded ID, finite
// positive work under MaxTaskWorkMI, a parallel fraction in [0,1],
// non-negative data under MaxTaskDataMB, and a known scenario (userhw
// additionally needs a design name). IDs are rendered with %q in every
// message so hostile bytes never round-trip raw onto the wire.
func (t *TaskSpec) Validate() error {
	if t.ID == "" {
		return errWire(CodeInvalidTask, "task without an id")
	}
	if len(t.ID) > MaxNameBytes {
		return errWire(CodeInvalidTask, "task id longer than %d bytes", MaxNameBytes)
	}
	if !finite(t.WorkMI) || t.WorkMI <= 0 || t.WorkMI > MaxTaskWorkMI {
		return errWire(CodeInvalidTask, "task %q: work_mi must be a finite positive number at most %g", t.ID, float64(MaxTaskWorkMI))
	}
	if !finite(t.Parallel) || t.Parallel < 0 || t.Parallel > 1 {
		return errWire(CodeInvalidTask, "task %q: parallel must be within [0,1]", t.ID)
	}
	if !finite(t.DataMB) || t.DataMB < 0 || t.DataMB > MaxTaskDataMB {
		return errWire(CodeInvalidTask, "task %q: data_mb must be finite, non-negative, and at most %g", t.ID, float64(MaxTaskDataMB))
	}
	if !wireScenarios[t.Scenario] {
		return errWire(CodeInvalidTask, "task %q: unknown scenario %q", t.ID, t.Scenario)
	}
	if t.Scenario == "userhw" && t.Design == "" {
		return errWire(CodeInvalidTask, "task %q: userhw task without a design", t.ID)
	}
	return nil
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }
