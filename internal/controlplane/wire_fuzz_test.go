package controlplane

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// referenceDecode is the decoder before the one-pass path: every line
// through encoding/json, then the same checks. The one-pass decode must
// give what it gives on every line.
func referenceDecode(line []byte, maxBytes int) (Request, error) {
	var req Request
	if maxBytes <= 0 {
		maxBytes = MaxRequestBytes
	}
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

// sameAsReference fails unless req and err are what referenceDecode
// gives for line: deep-equal requests (reflect.DeepEqual compares the
// tasks they point at) and the same error code and message.
func sameAsReference(t *testing.T, line []byte, req Request, err error) {
	t.Helper()
	want, wantErr := referenceDecode(line, MaxRequestBytes)
	if (err == nil) != (wantErr == nil) || err != nil && (ErrorCode(err) != ErrorCode(wantErr) || err.Error() != wantErr.Error()) {
		t.Fatalf("decode %q: err %v (%s), encoding/json gives %v (%s)", line, err, ErrorCode(err), wantErr, ErrorCode(wantErr))
	}
	if !reflect.DeepEqual(req, want) {
		t.Fatalf("decode %q:\n got  %+v task %+v\n want %+v task %+v", line, req, req.Task, want, want.Task)
	}
}

// warmLine fills a decoder's spec and its last tenant and design before
// the fuzzed line, as earlier lines of a connection do.
const warmLine = `{"op":"submit","tenant":"a","tier":"full","task":{"id":"warm","work_mi":5,"parallel":0.5,"data_mb":2,"scenario":"userhw","design":"aes128"}}`

// fallbackLines each leave the one-pass decode for encoding/json, one
// per way a line can: an escape, json.Marshal's escape of '<', an
// unknown key, a key in another case, a repeated key, a null, a
// non-ASCII byte, a number out of float64's range, a leading zero, a
// fraction without digits, bytes after the object, and a number longer
// than maxNumberBytes.
var fallbackLines = []string{
	`{"op":"status","tenant":"a","task_id":"t\"1"}`,
	`{"op":"status","tenant":"a\u003cb","task_id":"t"}`,
	`{"op":"ping","extra":1}`,
	`{"Op":"ping"}`,
	`{"op":"submit","tenant":"a","task":{"id":"t","id":"u","work_mi":1}}`,
	`{"op":"submit","tenant":"a","task":null}`,
	`{"op":"status","tenant":"é","task_id":"t"}`,
	`{"op":"submit","tenant":"a","task":{"id":"t","work_mi":1e999}}`,
	`{"op":"submit","tenant":"a","task":{"id":"t","work_mi":01}}`,
	`{"op":"submit","tenant":"a","task":{"id":"t","work_mi":1.}}`,
	`{"op":"ping"}x`,
	`{"op":"submit","tenant":"a","task":{"id":"t","work_mi":1.0000000000000000000000000000000001}}`,
}

// TestFallbackLines pins that each of fallbackLines leaves the one-pass
// decode, and that the line then decodes as encoding/json decodes it.
func TestFallbackLines(t *testing.T) {
	for _, line := range fallbackLines {
		if new(wireDecoder).scan([]byte(line)) {
			t.Errorf("%s: read in one pass", line)
		}
		req, err := DecodeRequest([]byte(line), 0)
		sameAsReference(t, []byte(line), req, err)
	}
}

// TestMarshaledRequestsScan pins that every line json.Marshal writes
// for a Request whose strings are printable ASCII it does not escape
// (all but '"', '\', '<', '>' and '&') takes the one-pass path and
// decodes as encoding/json decodes it: the lines the rmsd workloads and
// gridload send are such lines.
func TestMarshaledRequestsScan(t *testing.T) {
	rng := sim.NewRNG(7)
	const alphabet = " !#$%'()*+,-./0123456789:;=?@ABCDEFGHIJKLMNOPQRSTUVWXYZ[]^_`abcdefghijklmnopqrstuvwxyz{|}~"
	str := func() string {
		b := make([]byte, rng.Intn(12))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	num := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return rng.Float64()
		case 2:
			return float64(rng.Intn(1e6)) - 5e5
		}
		for {
			if f := math.Float64frombits(rng.Uint64()); finite(f) {
				return f
			}
		}
	}
	pick := func(names []string) string {
		if rng.Intn(2) == 0 {
			return names[rng.Intn(len(names))]
		}
		return str()
	}
	for i := 0; i < 20_000; i++ {
		req := Request{Op: pick(wireOps[:]), Tenant: str(), Tier: pick(tierNames[:]), TaskID: str()}
		if rng.Intn(2) == 0 {
			req.Task = &TaskSpec{ID: str(), WorkMI: num(), Parallel: num(), DataMB: num(), Scenario: pick(scenarioNames[:]), Design: str()}
		}
		line, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		d := new(wireDecoder)
		if !d.scan(line) {
			t.Fatalf("%s: fell back to encoding/json", line)
		}
		var want Request
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(d.req, want) {
			t.Fatalf("%s:\n got  %+v task %+v\n want %+v task %+v", line, d.req, d.req.Task, want, want.Task)
		}
	}
}

// FuzzDecodeRequest throws arbitrary bytes at the wire decoder. The
// contract: never panic, decode every line as encoding/json does
// (referenceDecode), whether on its own or after a connection's earlier
// lines, reject with a stable wire code (malformed JSON, oversized
// payloads, unknown ops/tiers/scenarios), and accept only requests that
// re-validate — an accepted submit always carries a tenant and a task
// spec that passes Validate.
func FuzzDecodeRequest(f *testing.F) {
	for _, seed := range []string{
		`{"op":"ping"}`,
		`{"op":"submit","tenant":"alice","tier":"full","task":{"id":"t1","work_mi":100,"parallel":0.5,"data_mb":8}}`,
		`{"op":"submit","tenant":"a","task":{"id":"hw","work_mi":1000,"scenario":"userhw","design":"aes128"}}`,
		`{"op":"status","tenant":"a","task_id":"t1"}`,
		`{"op":"cancel","tenant":"a","task_id":"t1"}`,
		`{"op":"stats"}`,
		`{"op":"drain"}`,
		`{"op":"shutdown"}`,
		`{"op":"submit","tenant":"a","tier":"platinum","task":{"id":"t","work_mi":1}}`,
		`{"op":"submit","tenant":"a","task":{"id":"t","work_mi":-1}}`,
		`{"op":"submit","tenant":"a","task":{"id":"t","work_mi":1e999}}`,
		`{"op":"submit","tenant":"a","task":{"id":"t","work_mi":1,"scenario":"quantum"}}`,
		`{"op":"submit","tenant":"a","task":{"id":"t","work_mi":1,"parallel":2}}`,
		`{not json`,
		`null`,
		`[]`,
		`""`,
		``,
		`{"op":"ping","extra":{"deep":{"deeper":[1,2,3]}}}`,
		"{\"op\":\"ping\"}\x00",
		// Hostile boundary numerics: a tiny request carrying a huge
		// magnitude must reject with a stable code, never admit work the
		// simulator would choke on.
		`{"op":"submit","tenant":"a","task":{"id":"t","work_mi":9223372036854775807}}`,
		`{"op":"submit","tenant":"a","task":{"id":"t","work_mi":-9223372036854775808}}`,
		`{"op":"submit","tenant":"a","task":{"id":"t","work_mi":4294967295}}`,
		`{"op":"submit","tenant":"a","task":{"id":"t","work_mi":4294967297}}`,
		`{"op":"submit","tenant":"a","task":{"id":"t","work_mi":1,"data_mb":9223372036854775807}}`,
		`{"op":"submit","tenant":"a","task":{"id":"t","work_mi":1,"parallel":9223372036854775807}}`,
		`{"op":"submit","tenant":"a","task":{"id":"t","work_mi":1e9}}`,
		`{"op":"submit","tenant":"` + strings.Repeat("A", 257) + `","task":{"id":"t","work_mi":1}}`,
		`{"op":"status","tenant":"a","task_id":"` + strings.Repeat("é", 200) + `"}`,
		`{"op":"submit","tenant":"\u001b[31mred\u001b[0m","task":{"id":"a\nb","work_mi":1}}`,
	} {
		f.Add([]byte(seed))
	}
	for _, line := range fallbackLines {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		req, err := DecodeRequest(line, MaxRequestBytes)
		sameAsReference(t, line, req, err)
		d := new(wireDecoder)
		if werr := d.decodeRequest([]byte(warmLine), MaxRequestBytes); werr != nil {
			t.Fatal(werr)
		}
		sameAsReference(t, line, d.req, d.decodeRequest(line, MaxRequestBytes))
		if err != nil {
			code := ErrorCode(err)
			switch code {
			case CodeBadRequest, CodeOversized, CodeUnknownOp, CodeUnknownTier, CodeInvalidTask:
			default:
				t.Fatalf("DecodeRequest(%q): unexpected reject code %q (%v)", line, code, err)
			}
			return
		}
		if !validOps[req.Op] {
			t.Fatalf("DecodeRequest(%q) accepted unknown op %q", line, req.Op)
		}
		if _, terr := ParseTier(req.Tier); terr != nil {
			t.Fatalf("DecodeRequest(%q) accepted unknown tier %q", line, req.Tier)
		}
		if req.Op == OpSubmit {
			if req.Tenant == "" || req.Task == nil {
				t.Fatalf("DecodeRequest(%q) accepted a bare submit", line)
			}
			if verr := req.Task.Validate(); verr != nil {
				t.Fatalf("DecodeRequest(%q) accepted invalid task: %v", line, verr)
			}
		}
		if len(line) > MaxRequestBytes {
			t.Fatalf("DecodeRequest accepted %d bytes over the %d cap", len(line), MaxRequestBytes)
		}
		_ = strings.TrimSpace(req.Op)
	})
}
