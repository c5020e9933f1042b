package controlplane

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"math/bits"
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

// fillAnswer builds an answer from fuzz input by reflection, so a field
// added to Response or TenantStats is filled, and compared, with no
// change here. The i-th field of a struct, counting the embedded
// counters in their place, is set when bit i of its mask is: a bool to
// true, a string to strs[i%2], an int to n+i and a float to fs[i%2]. The
// answer takes the low 16 bits of mask, its Stats the next 16, and row r
// of Tenants (rows of them) the top 16 rotated by r.
func fillAnswer(t *testing.T, mask uint64, strs [2]string, n int64, fs [2]float64, rows int) Response {
	var fields func(v reflect.Value) []reflect.Value
	fields = func(v reflect.Value) (out []reflect.Value) {
		for j := 0; j < v.NumField(); j++ {
			f := v.Field(j)
			if v.Type().Field(j).Anonymous {
				// The embedded counters' type is unexported, so reflect
				// reads them as read-only; address them afresh.
				f = reflect.NewAt(f.Type(), f.Addr().UnsafePointer()).Elem()
				out = append(out, fields(f)...)
				continue
			}
			out = append(out, f)
		}
		return out
	}
	var fill func(v reflect.Value, on uint16)
	fill = func(v reflect.Value, on uint16) {
		for i, f := range fields(v) {
			if on>>(i%16)&1 == 0 {
				continue
			}
			switch f.Kind() {
			case reflect.Bool:
				f.SetBool(true)
			case reflect.String:
				f.SetString(strs[i%2])
			case reflect.Int:
				f.SetInt(n + int64(i))
			case reflect.Float64:
				f.SetFloat(fs[i%2])
			case reflect.Pointer:
				p := reflect.New(f.Type().Elem())
				fill(p.Elem(), uint16(mask>>16))
				f.Set(p)
			case reflect.Slice:
				s := reflect.MakeSlice(f.Type(), rows, rows)
				for r := 0; r < rows; r++ {
					fill(s.Index(r), bits.RotateLeft16(uint16(mask>>48), r))
				}
				f.Set(s)
			default:
				t.Fatalf("field %d of %s: no fill for a %s", i, v.Type(), f.Kind())
			}
		}
	}
	var resp Response
	fill(reflect.ValueOf(&resp).Elem(), uint16(mask))
	return resp
}

// encodeLimits is a writer that keeps what it is given and the largest
// single write. Like a connection, it has no WriteString, through which
// bufio.Writer would hand on a long string unbuffered.
type encodeLimits struct {
	got      bytes.Buffer
	maxWrite int
}

func (w *encodeLimits) Write(p []byte) (int, error) {
	w.maxWrite = max(w.maxWrite, len(p))
	return w.got.Write(p)
}

// FuzzEncodeResponse compares the one-pass answer encoder with
// json.NewEncoder(w).Encode on every input: the same bytes, newline
// included, or, for an answer encoding/json refuses (a NaN or infinite
// float), an error and no byte written. Every write goes through the
// one buffer, none larger than it. The low three bits of shape are the
// roster's rows, and the rest repeat each string, cut to MaxNameBytes,
// up to 32 times, so a short input makes an answer longer than the
// buffer, with escapes across its edges.
func FuzzEncodeResponse(f *testing.F) {
	const (
		submit    = 0x73                // ok, op, tenant, task_id, state
		oneTenant = 0xffff<<16 | 0x93   // ok, op, tenant and stats, every stats field
		roster    = 0xffff<<48 | 0x103  // ok, op and tenants, every row field
		dump      = 0x203               // ok, op and dump
		failed    = 0xe                 // op, code, error
		sparse    = 0x5555<<48 | 0x0103 // rows with every other field
		fields    = 0xffff<<48 | 0xffff<<16 | 0x3ff
		long      = 31 << 3
	)
	negZero := math.Copysign(0, -1)
	for _, seed := range []struct {
		mask   uint64
		s0, s1 string
		n      int64
		f0, f1 float64
		shape  uint8
	}{
		{submit, "submit", "task-00117", 0, 0, 0, 0},
		{oneTenant, "acme", "full", 3, 12.5, 0.125, 0},
		{roster, "tenant-0001", "virtualized", 10, 83.51302845511407, 1234.5, 3},
		{dump, "dump", "controlplane state seed=1\ntenant \"a\" tier=\"full\"\ntotals submitted=1\n", 0, 0, 0, 0},
		{failed, "bad_request", `malformed request: invalid character '<' looking for beginning of value`, 0, 0, 0, 0},
		// Strings that need HTML, control-character and line-separator
		// escapes, and bytes that are not UTF-8.
		{fields, "<script>&amp;\"\\/\x00\x01\x1f\b\f\n\r\t\x7f", "a\u2028b\u2029c\u00e9\U0001F600", 1, 1, 2, 2},
		{fields, "\xff\xfe\xc3(\xe2\x82", "ok\xed\xa0\x80\xf4\x90\x80\x80", -7, 1, 2, 1},
		// Floats in the 'e' range and at its edges, and -0.
		{fields, "e", "range", 1 << 40, 1e21, 1e-7, 2},
		{fields, "edge", "s", -1 << 40, 999999999999999900000, 1e-6, 2},
		{fields, "tiny", "huge", 0, 5e-324, math.MaxFloat64, 2},
		{fields, "neg", "zero", 0, negZero, -1.5e-300, 2},
		{sparse, "x", "y", 2, negZero, 0, 7},
		// Answers longer than the buffer.
		{fields, "tenant \"a\" <b> & c\u2028\n", "\x01\xff", 9, 0.1, 3, long | 7},
		{dump, "dump", "tenant \"a\" tier=\"full\" submitted=1 completed=1 cost=0.25\n  rpe-0 \u2029", 0, 0, 0, long},
		// encoding/json refuses these.
		{fields, "nan", "inf", 0, math.NaN(), 1, 1},
		{fields, "nan", "inf", 0, 1, math.Inf(-1), 3},
		{oneTenant, "inf", "inf", 0, math.Inf(1), 1, 0},
	} {
		f.Add(seed.mask, seed.s0, seed.s1, seed.n, seed.f0, seed.f1, seed.shape)
	}
	f.Fuzz(func(t *testing.T, mask uint64, s0, s1 string, n int64, f0, f1 float64, shape uint8) {
		reps := 1 + int(shape>>3)
		strs := [2]string{strings.Repeat(s0[:min(len(s0), MaxNameBytes)], reps), strings.Repeat(s1[:min(len(s1), MaxNameBytes)], reps)}
		resp := fillAnswer(t, mask, strs, n, [2]float64{f0, f1}, int(shape&7))
		var want bytes.Buffer
		wantErr := json.NewEncoder(&want).Encode(&resp)
		out := new(encodeLimits)
		err := encodeResponse(bufio.NewWriterSize(out, wireBufBytes), &resp)
		got := out.got.Bytes()
		switch {
		case wantErr != nil && (err == nil || len(got) > 0):
			t.Fatalf("encoding/json refuses %+v (%v); the encoder wrote %q, %v", resp, wantErr, got, err)
		case wantErr == nil && err != nil:
			t.Fatalf("encoding/json writes %+v; the encoder failed: %v", resp, err)
		case !bytes.Equal(got, want.Bytes()):
			t.Fatalf("encoding %+v:\n got  %q\n want %q", resp, got, want.Bytes())
		case out.maxWrite > wireBufBytes:
			t.Fatalf("a write of %d bytes bypassed the %d-byte buffer", out.maxWrite, wireBufBytes)
		}
	})
}
