package controlplane

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Shutdown)
	return s
}

func mustOK(t *testing.T, resp Response) Response {
	t.Helper()
	if !resp.OK {
		t.Fatalf("%s failed: code=%s error=%s", resp.Op, resp.Code, resp.Error)
	}
	return resp
}

func spec(id string, mi float64) *TaskSpec {
	return &TaskSpec{ID: id, WorkMI: mi}
}

func taskID(prefix string, i int) string {
	return prefix + "-" + strconv.Itoa(i)
}

// TestSubmitCompleteStatus drives one task through the in-process API.
func TestSubmitCompleteStatus(t *testing.T) {
	s := newTestServer(t, DefaultConfig())
	mustOK(t, s.Do(Request{Op: OpSubmit, Tenant: "alice", Task: spec("t1", 5000)}))
	mustOK(t, s.Do(Request{Op: OpDrain}))
	resp := mustOK(t, s.Do(Request{Op: OpStatus, Tenant: "alice", TaskID: "t1"}))
	if resp.State != "done" {
		t.Errorf("state = %q, want done", resp.State)
	}
	stats := mustOK(t, s.Do(Request{Op: OpStats, Tenant: "alice"}))
	if stats.Stats == nil || stats.Stats.Completed != 1 || stats.Stats.InFlight != 0 {
		t.Errorf("stats = %+v", stats.Stats)
	}
	if stats.Stats.CostUnits <= 0 || stats.Stats.VirtualSeconds <= 0 {
		t.Errorf("accounting: %+v", stats.Stats)
	}
}

// TestScenarios covers the three wire scenarios end to end.
func TestScenarios(t *testing.T) {
	s := newTestServer(t, DefaultConfig())
	tasks := []*TaskSpec{
		{ID: "sw", WorkMI: 2000, Scenario: "software"},
		{ID: "sc", WorkMI: 2000, Scenario: "softcore", Parallel: 0.8},
		{ID: "hw", WorkMI: 20000, Scenario: "userhw", Design: "aes128", Parallel: 0.9},
	}
	for _, ts := range tasks {
		mustOK(t, s.Do(Request{Op: OpSubmit, Tenant: "bob", Task: ts}))
	}
	mustOK(t, s.Do(Request{Op: OpDrain}))
	for _, ts := range tasks {
		resp := mustOK(t, s.Do(Request{Op: OpStatus, Tenant: "bob", TaskID: ts.ID}))
		if resp.State != "done" {
			t.Errorf("task %s state = %q, want done", ts.ID, resp.State)
		}
	}
}

// TestCancelAndUnknowns covers cancel semantics and unknown lookups.
func TestCancelAndUnknowns(t *testing.T) {
	s := newTestServer(t, DefaultConfig())
	mustOK(t, s.Do(Request{Op: OpPause}))
	mustOK(t, s.Do(Request{Op: OpSubmit, Tenant: "carol", Task: spec("t1", 1000)}))
	resp := mustOK(t, s.Do(Request{Op: OpCancel, Tenant: "carol", TaskID: "t1"}))
	if resp.State != "canceled" {
		t.Errorf("state = %q, want canceled", resp.State)
	}
	// Canceling a terminal task reports its state without double counting.
	resp = s.Do(Request{Op: OpCancel, Tenant: "carol", TaskID: "t1"})
	if resp.OK || resp.State != "canceled" {
		t.Errorf("double cancel = %+v", resp)
	}
	if resp = s.Do(Request{Op: OpCancel, Tenant: "carol", TaskID: "nope"}); resp.Code != CodeUnknownTask {
		t.Errorf("code = %q, want %q", resp.Code, CodeUnknownTask)
	}
	if resp = s.Do(Request{Op: OpStatus, Tenant: "nobody", TaskID: "t1"}); resp.Code != CodeUnknownTenant {
		t.Errorf("code = %q, want %q", resp.Code, CodeUnknownTenant)
	}
	stats := mustOK(t, s.Do(Request{Op: OpStats, Tenant: "carol"})).Stats
	if stats.Canceled != 1 || stats.InFlight != 0 || !stats.conserved() {
		t.Errorf("stats = %+v", stats)
	}
}

// TestTierConflict pins that a tenant cannot switch tiers mid-life.
func TestTierConflict(t *testing.T) {
	s := newTestServer(t, DefaultConfig())
	mustOK(t, s.Do(Request{Op: OpSubmit, Tenant: "dan", Tier: "full", Task: spec("t1", 100)}))
	resp := s.Do(Request{Op: OpSubmit, Tenant: "dan", Tier: "background", Task: spec("t2", 100)})
	if resp.OK || resp.Code != CodeTierConflict {
		t.Errorf("resp = %+v, want tier_conflict", resp)
	}
	// An unnamed tier rides on the existing engine regardless of tier.
	mustOK(t, s.Do(Request{Op: OpSubmit, Tenant: "dan", Task: spec("t3", 100)}))
}

// TestDrainingRejectsSubmissions pins the draining admission gate and
// that resume reopens it.
func TestDrainingRejectsSubmissions(t *testing.T) {
	s := newTestServer(t, DefaultConfig())
	mustOK(t, s.Do(Request{Op: OpDrain}))
	resp := s.Do(Request{Op: OpSubmit, Tenant: "eve", Task: spec("t1", 100)})
	if resp.OK || resp.Code != CodeDraining {
		t.Errorf("resp = %+v, want draining", resp)
	}
	mustOK(t, s.Do(Request{Op: OpResume}))
	mustOK(t, s.Do(Request{Op: OpSubmit, Tenant: "eve", Task: spec("t2", 100)}))
	mustOK(t, s.Do(Request{Op: OpDrain}))
	stats := mustOK(t, s.Do(Request{Op: OpStats, Tenant: "eve"})).Stats
	if stats.Submitted != 2 || stats.Rejected != 1 || stats.Completed != 1 || !stats.conserved() {
		t.Errorf("stats = %+v", stats)
	}
}

// TestWireRoundTrip drives the server over a real TCP connection with
// the line-delimited JSON protocol.
func TestWireRoundTrip(t *testing.T) {
	conn := serveLoopback(t, newTestServer(t, DefaultConfig()))
	enc := json.NewEncoder(conn)
	sc := bufio.NewScanner(conn)
	roundTrip := func(req Request) Response {
		t.Helper()
		if err := enc.Encode(req); err != nil {
			t.Fatal(err)
		}
		if !sc.Scan() {
			t.Fatalf("no response: %v", sc.Err())
		}
		var resp Response
		if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	mustOK(t, roundTrip(Request{Op: OpPing}))
	mustOK(t, roundTrip(Request{Op: OpSubmit, Tenant: "frank", Tier: "virtualized", Task: spec("t1", 3000)}))
	mustOK(t, roundTrip(Request{Op: OpDrain}))
	if resp := mustOK(t, roundTrip(Request{Op: OpStatus, Tenant: "frank", TaskID: "t1"})); resp.State != "done" {
		t.Errorf("state = %q, want done", resp.State)
	}
	// Malformed and unknown inputs come back as coded errors, same conn.
	if _, err := conn.Write([]byte("{not json}\n")); err != nil {
		t.Fatal(err)
	}
	if !sc.Scan() {
		t.Fatalf("no response to malformed line: %v", sc.Err())
	}
	var bad Response
	if err := json.Unmarshal(sc.Bytes(), &bad); err != nil {
		t.Fatal(err)
	}
	if bad.OK || bad.Code != CodeBadRequest {
		t.Errorf("bad line resp = %+v", bad)
	}
	if resp := roundTrip(Request{Op: "launch"}); resp.Code != CodeUnknownOp {
		t.Errorf("code = %q, want unknown_op", resp.Code)
	}
	stats := mustOK(t, roundTrip(Request{Op: OpStats}))
	if len(stats.Tenants) != 1 || stats.Tenants[0].Tenant != "frank" {
		t.Errorf("tenants = %+v", stats.Tenants)
	}
}

// TestShutdownIdempotent pins that Shutdown is safe to call twice and
// that requests after shutdown fail cleanly rather than hang or panic.
func TestShutdownIdempotent(t *testing.T) {
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	mustOK(t, s.Do(Request{Op: OpSubmit, Tenant: "gail", Task: spec("t1", 100)}))
	s.Shutdown()
	s.Shutdown()
	if resp := s.Do(Request{Op: OpSubmit, Tenant: "gail", Task: spec("t2", 100)}); resp.OK {
		t.Errorf("submit after shutdown = %+v", resp)
	}
}

// serveLoopback serves s on a loopback listener and returns a connection
// to it, closed at the end of the test.
func serveLoopback(t *testing.T, s *Server) net.Conn {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		if err := s.Serve(ln); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := conn.Close(); err != nil && !strings.Contains(err.Error(), "closed") {
			t.Errorf("close: %v", err)
		}
	})
	return conn
}

// TestConnectionDecodeZeroed pins that a connection decodes each line
// into a zeroed request: every line is answered byte for byte as if it
// were decoded on its own by DecodeRequest, so no field of an earlier
// line (the task, its design, the tenant) survives into a later one.
func TestConnectionDecodeZeroed(t *testing.T) {
	lines := []string{
		`{"op":"submit","tenant":"a","tier":"full","task":{"id":"t1","work_mi":100,"scenario":"userhw","design":"aes128"}}`,
		`{"op":"submit","tenant":"a"}`,
		`{"op":"submit","tenant":"a","task":{"id":"t2","work_mi":100,"scenario":"userhw"}}`,
		`{"op":"status","task_id":"t1"}`,
		`{"op":"cancel","task_id":"t1"}`,
	}
	// Each line's answer on its own: its decode error, or what a fresh
	// server answers it.
	want := make([]string, len(lines))
	for i, line := range lines {
		req, err := DecodeRequest([]byte(line), 0)
		if err != nil {
			want[i] = wireJSON(t, errorResponse(req.Op, err))
		} else {
			want[i] = wireJSON(t, newTestServer(t, DefaultConfig()).Do(req))
		}
	}
	if want[0] != `{"ok":true,"op":"submit","tenant":"a","task_id":"t1","state":"queued"}` {
		t.Fatalf("the first line is not accepted on its own: %s", want[0])
	}

	conn := serveLoopback(t, newTestServer(t, DefaultConfig()))
	rd := bufio.NewReader(conn)
	for i, line := range lines {
		if _, err := conn.Write([]byte(line + "\n")); err != nil {
			t.Fatal(err)
		}
		got, err := rd.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if got != want[i]+"\n" {
			t.Errorf("line %d %s:\n got  %s want %s", i, line, got, want[i])
		}
	}
}

// TestWireSubmitAllocs pins what one submit costs the server over the
// wire on a warm tenant: a connection decodes into one request and
// encodes from one response, Do takes its reply channel from a pool and
// the task runs from its shard's slot, so what is left is what
// encoding/json allocates while decoding (the task spec and the
// request's strings, the task ID among them, which the tenant keeps) and
// the tenant's task map growing.
func TestWireSubmitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	const (
		warm    = 64
		runs    = 500
		ceiling = 12.5 // allocations per submit
	)
	conn := serveLoopback(t, newTestServer(t, DefaultConfig()))
	rd := bufio.NewReader(conn)
	lines := make([][]byte, warm+runs)
	for i := range lines {
		ts := &TaskSpec{ID: taskID("task", i), WorkMI: float64(50 + i%200), Parallel: 0.5, Scenario: scenarioOf(i)}
		if ts.Scenario == "userhw" {
			ts.Design = "aes128"
		}
		b, err := json.Marshal(Request{Op: OpSubmit, Tenant: "acme", Tier: "full", Task: ts})
		if err != nil {
			t.Fatal(err)
		}
		lines[i] = append(b, '\n')
	}
	submit := func(i int) {
		if _, err := conn.Write(lines[i]); err != nil {
			t.Fatal(err)
		}
		resp, err := rd.ReadSlice('\n')
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(resp, []byte(`{"ok":true`)) {
			t.Fatalf("submit %d: %s", i, resp)
		}
	}
	for i := 0; i < warm; i++ {
		submit(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := warm; i < warm+runs; i++ {
		submit(i)
	}
	runtime.ReadMemStats(&after)
	avg := float64(after.Mallocs-before.Mallocs) / runs
	t.Logf("%.1f allocations per wire submit", avg)
	if avg > ceiling {
		t.Errorf("a wire submit allocates %.1f times, want at most %v", avg, ceiling)
	}
}

// TestReplyPoolShutdown shuts server A down while goroutines call A.Do
// and server B serves submits and statuses. Reply channels are pooled
// across servers, and a call that a shutdown cuts off drops its channel,
// since A's shard may still answer on it: every answer B gives names B's
// own tenant and task, and every call A takes after its shutdown is
// refused as shutting down.
func TestReplyPoolShutdown(t *testing.T) {
	a, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b := newTestServer(t, DefaultConfig())
	const callers = 4
	var (
		wg       sync.WaitGroup
		answered atomic.Int64 // calls A has answered
		shutDown atomic.Bool  // A's Shutdown has returned
	)
	for g := 0; g < callers; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			tenant := "a-" + strconv.Itoa(g)
			// Calls keep coming until well after the shutdown.
			for i, refused := 0, 0; refused < 50; i++ {
				after := shutDown.Load()
				req := Request{Op: OpSubmit, Tenant: tenant, Task: spec(taskID("t", i), 10)}
				if i%2 == 1 {
					req = Request{Op: OpStatus, Tenant: tenant, TaskID: taskID("t", i-1)}
				}
				resp := a.Do(req)
				answered.Add(1)
				if after {
					refused++
					if resp.OK || resp.Code != CodeInternal || resp.Error != "server is shutting down" {
						t.Errorf("A after its shutdown answered %+v", resp)
						return
					}
				}
			}
		}(g)
		go func(g int) {
			defer wg.Done()
			tenant := "b-" + strconv.Itoa(g)
			for i := 0; !shutDown.Load() || i < 200; i++ {
				id := taskID("t", i)
				for _, req := range []Request{
					{Op: OpSubmit, Tenant: tenant, Task: spec(id, 10)},
					{Op: OpStatus, Tenant: tenant, TaskID: id},
				} {
					if resp := b.Do(req); !resp.OK || resp.Tenant != tenant || resp.TaskID != id {
						t.Errorf("B answered %s/%s %s with %+v", tenant, id, req.Op, resp)
						return
					}
				}
			}
		}(g)
	}
	for answered.Load() < 200 {
		runtime.Gosched()
	}
	a.Shutdown()
	shutDown.Store(true)
	wg.Wait()
}
