package controlplane

import (
	"strings"
	"testing"
)

// TestDecodeRequestBounds pins the per-field semantic bounds added for
// the hostile-input audit: every tenant-controlled magnitude has a
// ceiling, every over-ceiling input rejects with a stable wire code,
// and values exactly at the ceiling are still accepted.
func TestDecodeRequestBounds(t *testing.T) {
	longName := strings.Repeat("n", MaxNameBytes+1)
	edgeName := strings.Repeat("n", MaxNameBytes)
	cases := []struct {
		name string
		line string
		code string // "" means accepted
	}{
		{"tenant too long", `{"op":"stats","tenant":"` + longName + `"}`, CodeBadRequest},
		{"tenant at bound", `{"op":"stats","tenant":"` + edgeName + `"}`, ""},
		{"task_id too long", `{"op":"status","tenant":"a","task_id":"` + longName + `"}`, CodeBadRequest},
		{"task_id at bound", `{"op":"status","tenant":"a","task_id":"` + edgeName + `"}`, ""},
		{"task id too long", `{"op":"submit","tenant":"a","task":{"id":"` + longName + `","work_mi":1}}`, CodeInvalidTask},
		{"work over ceiling", `{"op":"submit","tenant":"a","task":{"id":"t","work_mi":1.0000001e9}}`, CodeInvalidTask},
		{"work at ceiling", `{"op":"submit","tenant":"a","task":{"id":"t","work_mi":1e9}}`, ""},
		{"work huge", `{"op":"submit","tenant":"a","task":{"id":"t","work_mi":9e18}}`, CodeInvalidTask},
		{"data over ceiling", `{"op":"submit","tenant":"a","task":{"id":"t","work_mi":1,"data_mb":1.5e6}}`, CodeInvalidTask},
		{"data at ceiling", `{"op":"submit","tenant":"a","task":{"id":"t","work_mi":1,"data_mb":1e6}}`, ""},
	}
	for _, tc := range cases {
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

// TestMaxShardsClamp pins the dispatcher-width ceiling: an absurd
// operator value is clamped to MaxShards, not allocated.
func TestMaxShardsClamp(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shards = MaxShards + 7
	s := newTestServer(t, cfg)
	if got := len(s.shards); got != MaxShards {
		t.Fatalf("shards = %d, want clamp to %d", got, MaxShards)
	}
	if resp := s.Do(Request{Op: OpPing}); !resp.OK {
		t.Fatalf("ping on clamped server failed: %+v", resp)
	}
}

// TestHostileRejectAllocs guards the reject path's allocation profile:
// decoding and admitting a hostile request allocates a small constant,
// never memory proportional to the magnitudes the request claims. A
// regression here means a flood of garbage requests can run the server
// out of memory before admission control ever says no.
func TestHostileRejectAllocs(t *testing.T) {
	hostile := []byte(`{"op":"submit","tenant":"a","task":{"id":"t","work_mi":9223372036854775807}}`)
	decode := func() {
		if _, err := DecodeRequest(hostile, 0); err == nil {
			t.Fatal("hostile request accepted")
		}
	}
	if avg := testing.AllocsPerRun(200, decode); avg > 64 {
		t.Errorf("decode reject = %.1f allocs/op, want a small constant (<= 64)", avg)
	}

	// Admission reject: a duplicate task ID turns the submit away inside
	// the tenant engine with constant work.
	cfg := DefaultConfig()
	te, err := newTenantEngine("acme", TierFull, 1, &cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp := te.submit(&TaskSpec{ID: "dup", WorkMI: 10}, 0, false); !resp.OK {
		t.Fatalf("seed submit failed: %+v", resp)
	}
	spec := &TaskSpec{ID: "dup", WorkMI: 10}
	admit := func() {
		if resp := te.submit(spec, 0, false); resp.OK {
			t.Fatal("duplicate submit accepted")
		}
	}
	if avg := testing.AllocsPerRun(200, admit); avg > 32 {
		t.Errorf("admission reject = %.1f allocs/op, want a small constant (<= 32)", avg)
	}
}
