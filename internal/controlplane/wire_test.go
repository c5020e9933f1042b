package controlplane

import (
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
)

// decodeCases are request lines and the wire code each decodes to.
var decodeCases = []struct {
	name string
	line string
	code string // "" means accepted
}{
	{"ping", `{"op":"ping"}`, ""},
	{"submit ok", `{"op":"submit","tenant":"a","task":{"id":"t1","work_mi":100}}`, ""},
	{"submit full tier", `{"op":"submit","tenant":"a","tier":"full","task":{"id":"t1","work_mi":100}}`, ""},
	{"status ok", `{"op":"status","tenant":"a","task_id":"t1"}`, ""},
	{"stats no tenant", `{"op":"stats"}`, ""},
	{"malformed json", `{not json`, CodeBadRequest},
	{"empty object", `{}`, CodeUnknownOp},
	{"unknown op", `{"op":"launch"}`, CodeUnknownOp},
	{"unknown tier", `{"op":"submit","tenant":"a","tier":"platinum","task":{"id":"t1","work_mi":1}}`, CodeUnknownTier},
	{"submit no tenant", `{"op":"submit","task":{"id":"t1","work_mi":1}}`, CodeBadRequest},
	{"submit no task", `{"op":"submit","tenant":"a"}`, CodeBadRequest},
	{"task no id", `{"op":"submit","tenant":"a","task":{"work_mi":1}}`, CodeInvalidTask},
	{"task long id", `{"op":"submit","tenant":"a","task":{"id":"` + strings.Repeat("x", 300) + `","work_mi":1}}`, CodeInvalidTask},
	{"task no work", `{"op":"submit","tenant":"a","task":{"id":"t1"}}`, CodeInvalidTask},
	{"task negative work", `{"op":"submit","tenant":"a","task":{"id":"t1","work_mi":-5}}`, CodeInvalidTask},
	{"task huge exponent", `{"op":"submit","tenant":"a","task":{"id":"t1","work_mi":1e999}}`, CodeBadRequest},
	{"task parallel over 1", `{"op":"submit","tenant":"a","task":{"id":"t1","work_mi":1,"parallel":1.5}}`, CodeInvalidTask},
	{"task negative data", `{"op":"submit","tenant":"a","task":{"id":"t1","work_mi":1,"data_mb":-1}}`, CodeInvalidTask},
	{"task unknown scenario", `{"op":"submit","tenant":"a","task":{"id":"t1","work_mi":1,"scenario":"quantum"}}`, CodeInvalidTask},
	{"userhw no design", `{"op":"submit","tenant":"a","task":{"id":"t1","work_mi":1,"scenario":"userhw"}}`, CodeInvalidTask},
	{"status no task_id", `{"op":"status","tenant":"a"}`, CodeBadRequest},
	{"cancel no tenant", `{"op":"cancel","task_id":"t1"}`, CodeBadRequest},
}

// TestDecodeRequestTable pins the decode/validation surface: every
// malformed input maps to a stable wire code.
func TestDecodeRequestTable(t *testing.T) {
	for _, tc := range decodeCases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeRequest([]byte(tc.line), 0)
			if tc.code == "" {
				if err != nil {
					t.Fatalf("unexpected reject: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("accepted, want code %s", tc.code)
			}
			if got := ErrorCode(err); got != tc.code {
				t.Errorf("code = %q, want %q (err: %v)", got, tc.code, err)
			}
		})
	}
}

// TestDoChecksAsDecodeRequest pins that Do runs the wire's request
// checks: each rejected line of decodeCases that encoding/json reads into
// a Request gets, through Do, the code and message DecodeRequest gives
// it, and a submit without a task is a bad request, not a panic.
func TestDoChecksAsDecodeRequest(t *testing.T) {
	s := newTestServer(t, DefaultConfig())
	checked := 0
	for _, tc := range decodeCases {
		var req Request
		if tc.code == "" || json.Unmarshal([]byte(tc.line), &req) != nil {
			continue
		}
		checked++
		_, err := DecodeRequest([]byte(tc.line), 0)
		if resp := s.Do(req); resp.OK || resp.Code != tc.code || resp.Error != err.Error() {
			t.Errorf("%s: Do answered %+v, DecodeRequest %s: %v", tc.name, resp, ErrorCode(err), err)
		}
	}
	if checked < 10 {
		t.Fatalf("only %d rejected lines decode to a request", checked)
	}
	if resp := s.Do(Request{Op: OpSubmit, Tenant: "a"}); resp.OK || resp.Code != CodeBadRequest {
		t.Errorf("a submit without a task answered %+v", resp)
	}
}

// TestDecodeRequestOversized pins the size cap: the reject happens
// before JSON work and carries the oversized code.
func TestDecodeRequestOversized(t *testing.T) {
	line := `{"op":"ping","tenant":"` + strings.Repeat("a", 200) + `"}`
	if _, err := DecodeRequest([]byte(line), 64); ErrorCode(err) != CodeOversized {
		t.Errorf("err = %v, want oversized", err)
	}
	if _, err := DecodeRequest([]byte(line), 0); err != nil {
		t.Errorf("default cap rejected a small line: %v", err)
	}
}

// TestErrorCodeMapping pins the error→wire-code translation: a wire
// error crosses the boundary with its own code, anything else as
// internal.
func TestErrorCodeMapping(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want string
	}{
		{"nil", nil, ""},
		{"wire error", errWire(CodeQueueFull, "full"), CodeQueueFull},
		{"plain error", errors.New("boom"), CodeInternal},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := ErrorCode(tc.err); got != tc.want {
				t.Errorf("ErrorCode = %q, want %q", got, tc.want)
			}
		})
	}
}

// TestTokenBucketQuota pins deterministic refill against a fake clock.
func TestTokenBucketQuota(t *testing.T) {
	clock := int64(0)
	cfg := DefaultConfig()
	cfg.NowNanos = func() int64 { return clock }
	cfg.RateOverride = 2 // 2 admissions/second
	cfg.BurstOverride = 3
	s := newTestServer(t, cfg)
	mustOK(t, s.Do(Request{Op: OpPause}))
	admitted := 0
	for i := 0; i < 5; i++ {
		if s.Do(Request{Op: OpSubmit, Tenant: "a", Task: spec(taskID("b", i), 100)}).OK {
			admitted++
		}
	}
	if admitted != 3 {
		t.Fatalf("burst admitted %d, want 3", admitted)
	}
	clock += int64(1e9) // one second refills two tokens
	for i := 0; i < 5; i++ {
		if s.Do(Request{Op: OpSubmit, Tenant: "a", Task: spec(taskID("r", i), 100)}).OK {
			admitted++
		}
	}
	if admitted != 5 {
		t.Fatalf("after refill admitted %d, want 5", admitted)
	}
	stats := mustOK(t, s.Do(Request{Op: OpStats, Tenant: "a"})).Stats
	if stats.QuotaDenied != 5 || !stats.conserved() {
		t.Errorf("stats = %+v", stats)
	}
}

// TestTokenBucketInvariants sweeps the bucket directly: tokens stay in
// [0, burst] and admissions over any window respect burst + rate·Δ.
func TestTokenBucketInvariants(t *testing.T) {
	b := newTokenBucket(10, 0)
	admissions := 0
	clock := int64(0)
	for i := 0; i < 10_000; i++ {
		// A hostile clock: mostly forward, sometimes backwards.
		switch i % 7 {
		case 3:
			clock -= 50_000_000
		default:
			clock += int64(i%5) * 100_000_000
		}
		if b.take(5, 10, clock) {
			admissions++
		}
		if b.tokens < 0 || b.tokens > 10 {
			t.Fatalf("tokens %v outside [0,10] at step %d", b.tokens, i)
		}
	}
	if math.IsNaN(b.tokens) {
		t.Fatal("tokens went NaN")
	}
	// Upper bound over the whole run: initial burst + rate × elapsed.
	elapsed := float64(clock) / 1e9
	if maxAdmit := 10 + 5*elapsed; float64(admissions) > maxAdmit+1 {
		t.Fatalf("admitted %d > bound %.0f", admissions, maxAdmit)
	}
}
