package controlplane

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// The wire protocol is line-delimited JSON over TCP or a unix socket: one
// request object per line in, one response object per line out, in order.
// It is deliberately schema-light — a tenant needs nothing beyond a JSON
// encoder — and every malformed input maps to an error response with a
// stable code, never to a dropped connection or a panic (the decoder is
// fuzzed on that contract). Answers are written in one pass through one
// fixed buffer per connection, in the bytes encoding/json writes
// (encodeResponse, fuzzed against encoding/json).

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

// wireOps are the wire operations; validOps, their set, is the
// decoder's operation whitelist.
var (
	wireOps  = [...]string{OpSubmit, OpStatus, OpCancel, OpStats, OpDrain, OpPause, OpResume, OpDump, OpPing, OpShutdown}
	validOps = nameSet(wireOps[:])
)

// scenarioNames are the scenario names a TaskSpec may carry, and
// wireScenarios their set. The device-specific scenario needs a user
// bitstream, which the wire format does not transport; it is rejected
// as an unknown scenario.
var (
	scenarioNames = [...]string{"", "software", "softcore", "userhw"}
	wireScenarios = nameSet(scenarioNames[:])
)

// nameSet returns the set of names.
func nameSet(names []string) map[string]bool {
	set := make(map[string]bool, len(names))
	for _, n := range names {
		set[n] = true
	}
	return set
}

// DecodeRequest parses and validates one request line under the given
// size cap (maxBytes ≤ 0 selects MaxRequestBytes). It never panics:
// malformed JSON, oversized payloads, unknown operations, unknown tiers,
// non-finite numbers, and invalid task specs all return an error whose
// ErrorCode is a stable wire code.
func DecodeRequest(line []byte, maxBytes int) (Request, error) {
	d := new(wireDecoder)
	err := d.decodeRequest(line, maxBytes)
	return d.req, err
}

// wireDecoder is what a connection decodes its lines with: the request
// and the task spec every line decodes into, and the last tenant and
// design names it read, whose strings a later line naming them reuses.
type wireDecoder struct {
	req            Request
	spec           TaskSpec
	tenant, design string
}

// decodeRequest parses line into d.req and validates it.
func (d *wireDecoder) decodeRequest(line []byte, maxBytes int) error {
	if err := d.parse(line, maxBytes); err != nil {
		return err
	}
	return d.req.validate()
}

// parse parses line into d.req, which it zeroes first, so no field of an
// earlier line survives into this one. A line in the shape json.Marshal
// writes a Request in is read in one pass (scan); any other line goes to
// encoding/json, so every reject keeps its code and message.
func (d *wireDecoder) parse(line []byte, maxBytes int) error {
	req := &d.req
	*req = Request{}
	if maxBytes <= 0 {
		maxBytes = MaxRequestBytes
	}
	if len(line) > maxBytes {
		return errWire(CodeOversized, "request of %d bytes exceeds the %d-byte cap", len(line), maxBytes)
	}
	if !d.scan(line) {
		*req = Request{}
		if err := json.Unmarshal(line, req); err != nil {
			return errWire(CodeBadRequest, "malformed request: %v", err)
		}
	}
	return nil
}

// validate checks a request against the wire contract: a whitelisted
// op, bounded names, a known tier, and what its op needs. Server.Do runs
// it on every request, so one built in process meets the same checks as
// one decoded from a line.
func (req *Request) validate() error {
	if !validOps[req.Op] {
		return errWire(CodeUnknownOp, "unknown op %q", req.Op)
	}
	if len(req.Tenant) > MaxNameBytes {
		return errWire(CodeBadRequest, "tenant name longer than %d bytes", MaxNameBytes)
	}
	if len(req.TaskID) > MaxNameBytes {
		return errWire(CodeBadRequest, "task_id longer than %d bytes", MaxNameBytes)
	}
	if _, err := ParseTier(req.Tier); err != nil {
		return errWire(CodeUnknownTier, "unknown tier %q", req.Tier)
	}
	switch req.Op {
	case OpSubmit:
		if req.Tenant == "" {
			return errWire(CodeBadRequest, "submit without a tenant")
		}
		if req.Task == nil {
			return errWire(CodeBadRequest, "submit without a task")
		}
		return req.Task.Validate()
	case OpStatus, OpCancel:
		if req.Tenant == "" || req.TaskID == "" {
			return errWire(CodeBadRequest, "%s needs tenant and task_id", req.Op)
		}
	}
	return nil
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

// scan reads line into d.req in one pass, and a task into d.spec, when
// the line reads the same to encoding/json: one object of the schema's
// exact-case keys, each at most once, whose strings are printable ASCII
// with no escape and whose numbers follow JSON's grammar and parse with
// strconv.ParseFloat, as encoding/json parses them. Op, tier and
// scenario strings come from their fixed tables, and a tenant or design
// equal to the last one read is that string again. On any other line it
// returns false, with what it read so far left in d.req and d.spec.
func (d *wireDecoder) scan(line []byte) bool {
	l := wireLine{b: line}
	return l.object(func(key []byte) (bit uint8, ok bool) {
		var v []byte
		switch string(key) {
		case "op":
			v, ok = l.str()
			d.req.Op = tableName(v, wireOps[:])
			return 1, ok
		case "tenant":
			v, ok = l.str()
			d.req.Tenant = lastName(v, &d.tenant)
			return 2, ok
		case "tier":
			v, ok = l.str()
			d.req.Tier = tableName(v, tierNames[:])
			return 4, ok
		case "task_id":
			v, ok = l.str()
			d.req.TaskID = string(v)
			return 8, ok
		case "task":
			d.req.Task = &d.spec
			return 16, d.scanTask(&l)
		}
		return 0, false
	}) && l.i == len(l.b)
}

// scanTask reads a task object into d.spec, which it zeroes first.
func (d *wireDecoder) scanTask(l *wireLine) bool {
	s := &d.spec
	*s = TaskSpec{}
	return l.object(func(key []byte) (bit uint8, ok bool) {
		var v []byte
		switch string(key) {
		case "id":
			v, ok = l.str()
			s.ID = string(v)
			return 1, ok
		case "work_mi":
			s.WorkMI, ok = l.num()
			return 2, ok
		case "parallel":
			s.Parallel, ok = l.num()
			return 4, ok
		case "data_mb":
			s.DataMB, ok = l.num()
			return 8, ok
		case "scenario":
			v, ok = l.str()
			s.Scenario = tableName(v, scenarioNames[:])
			return 16, ok
		case "design":
			v, ok = l.str()
			s.Design = lastName(v, &d.design)
			return 32, ok
		}
		return 0, false
	})
}

// tableName returns the entry of names equal to b, or else b as a new
// string.
func tableName(b []byte, names []string) string {
	for _, n := range names {
		if n == string(b) {
			return n
		}
	}
	return string(b)
}

// lastName returns *last if it equals b, or else b as a new string,
// which it keeps in *last.
func lastName(b []byte, last *string) string {
	if *last != string(b) {
		*last = string(b)
	}
	return *last
}

// wireLine is the one-pass decode's cursor over a request line.
type wireLine struct {
	b []byte
	i int
}

// object reads an object, calling member on each key to read its value.
// member returns the key's bit, 0 for an unknown key, and whether it
// read the value; a key read twice fails the object.
func (l *wireLine) object(member func(key []byte) (bit uint8, ok bool)) bool {
	if !l.skip('{') {
		return false
	}
	var seen uint8
	for first := true; !l.skip('}'); first = false {
		if !first && !l.skip(',') {
			return false
		}
		key, ok := l.str()
		if !ok || !l.skip(':') {
			return false
		}
		bit, ok := member(key)
		if !ok || bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
	}
	return true
}

// skip consumes c if it is the next byte.
func (l *wireLine) skip(c byte) bool {
	if l.i < len(l.b) && l.b[l.i] == c {
		l.i++
		return true
	}
	return false
}

// str reads a string of printable ASCII with no escape: the string's
// value is its bytes.
func (l *wireLine) str() ([]byte, bool) {
	if !l.skip('"') {
		return nil, false
	}
	for start := l.i; l.i < len(l.b); l.i++ {
		switch c := l.b[l.i]; {
		case c == '"':
			l.i++
			return l.b[start : l.i-1], true
		case c < ' ' || c > '~' || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// maxNumberBytes is the longest number the one-pass decode reads, so
// the string it parses fits the compiler's stack buffer for a
// conversion that does not escape.
const maxNumberBytes = 32

// num reads a number in JSON's grammar and parses it as encoding/json
// parses a float64.
func (l *wireLine) num() (float64, bool) {
	start := l.i
	l.skip('-')
	if !l.skip('0') && l.digits() == 0 {
		return 0, false
	}
	if l.skip('.') && l.digits() == 0 {
		return 0, false
	}
	if l.skip('e') || l.skip('E') {
		if !l.skip('+') {
			l.skip('-')
		}
		if l.digits() == 0 {
			return 0, false
		}
	}
	if l.i-start > maxNumberBytes {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(l.b[start:l.i]), 64)
	return f, err == nil
}

// digits consumes a run of decimal digits and returns its length.
func (l *wireLine) digits() int {
	start := l.i
	for l.i < len(l.b) && '0' <= l.b[l.i] && l.b[l.i] <= '9' {
		l.i++
	}
	return l.i - start
}

// wireBufBytes is the size of a connection's one write buffer.
const wireBufBytes = 4096

// numberRoom is more than the longest number or escape an answer
// appends to its buffer at once: an int, or a float64 in the form
// encoding/json writes it.
const numberRoom = 32

// errNonFinite is what encodeResponse returns for an answer holding a
// NaN or an infinite float, which encoding/json refuses to write.
var errNonFinite = errors.New("controlplane: answer holds a non-finite float")

// encodeResponse writes resp to w in one pass, field by field, exactly as
// json.NewEncoder(w).Encode(resp) writes it, newline included, and
// flushes w. w is a connection's one fixed buffer of wireBufBytes, which
// goes out whenever it fills, so an answer longer than it (a roster, a
// dump) never exists whole in memory; w keeps its first write error,
// and Flush returns it. An answer that encoding/json refuses writes none
// of its bytes and returns errNonFinite.
func encodeResponse(w *bufio.Writer, resp *Response) error {
	if !resp.finite() {
		return errNonFinite
	}
	w.WriteString(`{"ok":`)
	w.WriteString(strconv.FormatBool(resp.OK))
	writeStrField(w, `,"op":`, resp.Op)
	writeStrField(w, `,"code":`, resp.Code)
	writeStrField(w, `,"error":`, resp.Error)
	writeStrField(w, `,"tenant":`, resp.Tenant)
	writeStrField(w, `,"task_id":`, resp.TaskID)
	writeStrField(w, `,"state":`, resp.State)
	if resp.Stats != nil {
		w.WriteString(`,"stats":`)
		writeStats(w, resp.Stats)
	}
	if len(resp.Tenants) > 0 {
		w.WriteString(`,"tenants":[`)
		for i := range resp.Tenants {
			if i > 0 {
				w.WriteByte(',')
			}
			writeStats(w, &resp.Tenants[i])
		}
		w.WriteByte(']')
	}
	writeStrField(w, `,"dump":`, resp.Dump)
	w.WriteString("}\n")
	return w.Flush()
}

// finite reports whether every float resp holds is finite.
func (resp *Response) finite() bool {
	if resp.Stats != nil && !resp.Stats.finite() {
		return false
	}
	for i := range resp.Tenants {
		if !resp.Tenants[i].finite() {
			return false
		}
	}
	return true
}

func (st *TenantStats) finite() bool {
	return finite(st.RepairSeconds) && finite(st.VirtualSeconds) && finite(st.CostUnits)
}

// writeStats writes st as encoding/json writes a TenantStats: its fields
// in declaration order with the embedded counters in their place, and
// the omitempty fault fields only when nonzero.
func writeStats(w *bufio.Writer, st *TenantStats) {
	w.WriteString(`{"tenant":`)
	writeString(w, st.Tenant)
	w.WriteString(`,"tier":`)
	writeString(w, st.Tier)
	writeIntField(w, `,"submitted":`, st.Submitted)
	writeIntField(w, `,"accepted":`, st.Accepted)
	writeIntField(w, `,"rejected":`, st.Rejected)
	writeIntField(w, `,"quota_denied":`, st.QuotaDenied)
	writeIntField(w, `,"completed":`, st.Completed)
	writeIntField(w, `,"evicted":`, st.Evicted)
	writeIntField(w, `,"canceled":`, st.Canceled)
	writeIntField(w, `,"in_flight":`, st.InFlight)
	writeIntField(w, `,"retries":`, st.Retries)
	if st.FaultAborts != 0 {
		writeIntField(w, `,"fault_aborts":`, st.FaultAborts)
	}
	if st.RepairedTasks != 0 {
		writeIntField(w, `,"repaired_tasks":`, st.RepairedTasks)
	}
	if st.RepairSeconds != 0 {
		writeFloatField(w, `,"repair_seconds":`, st.RepairSeconds)
	}
	writeFloatField(w, `,"virtual_seconds":`, st.VirtualSeconds)
	writeFloatField(w, `,"cost_units":`, st.CostUnits)
	w.WriteByte('}')
}

// writeStrField writes an omitempty string field: key and value, or
// nothing when s is empty.
func writeStrField(w *bufio.Writer, key, s string) {
	if s != "" {
		w.WriteString(key)
		writeString(w, s)
	}
}

func writeIntField(w *bufio.Writer, key string, n int) {
	w.WriteString(key)
	w.Write(strconv.AppendInt(room(w), int64(n), 10))
}

// writeFloatField writes a finite f as encoding/json writes a float64:
// the shortest form that reads back as f, in 'e' notation below 1e-6 and
// from 1e21 up, with the exponent's leading zero dropped.
func writeFloatField(w *bufio.Writer, key string, f float64) {
	w.WriteString(key)
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(room(w), f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	w.Write(b)
}

// writeString writes s as a JSON string, escaped as encoding/json
// escapes it: '"' and '\' by a backslash, \b \f \n \r \t by name, any
// other control byte and '<', '>' and '&' as \u00XX, a byte that is not
// UTF-8 as \ufffd, and U+2028 and U+2029 as \u2028 and \u2029. Runs that
// need no escape are copied whole.
func writeString(w *bufio.Writer, s string) {
	w.WriteByte('"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			w.WriteString(s[start:i])
			switch c {
			case '"', '\\':
				w.Write(append(room(w), '\\', c))
			case '\b':
				w.WriteString(`\b`)
			case '\f':
				w.WriteString(`\f`)
			case '\n':
				w.WriteString(`\n`)
			case '\r':
				w.WriteString(`\r`)
			case '\t':
				w.WriteString(`\t`)
			default:
				w.Write(append(room(w), '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF]))
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			w.WriteString(s[start:i])
			w.WriteString(`\ufffd`)
		case r == '\u2028' || r == '\u2029':
			w.WriteString(s[start:i])
			w.Write(append(room(w), '\\', 'u', '2', '0', '2', hexDigits[r&0xF]))
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	w.WriteString(s[start:])
	w.WriteByte('"')
}

const hexDigits = "0123456789abcdef"

// room returns w's free buffer to append at most numberRoom bytes to,
// sending what w holds first when fewer are free: a slice appended past
// its capacity would grow into a new allocation.
func room(w *bufio.Writer) []byte {
	if w.Available() < numberRoom {
		w.Flush()
	}
	return w.AvailableBuffer()
}
