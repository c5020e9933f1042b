package main

import (
	"bytes"
	"encoding/json"
	"net"
	"strconv"
	"testing"
	"time"

	"repro/internal/controlplane"
	"repro/internal/report"
)

// startServer boots an in-process control plane on a loopback port.
func startServer(t *testing.T) (string, *controlplane.Server) {
	t.Helper()
	srv, err := controlplane.New(controlplane.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown()
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Shutdown()
		if err := <-served; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return ln.Addr().String(), srv
}

// runGridload runs the command and returns its summary; any exit status
// but 0 fails the test.
func runGridload(t *testing.T, args ...string) report.SoakSummary {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("gridload %v exited %d: %s", args, code, stderr.String())
	}
	var rep report.SoakSummary
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("summary: %v\n%s", err, stdout.String())
	}
	return rep
}

// TestOpenLoopTimesResponsesFromSend: open mode reads each response as it
// arrives, so its latency is the server's, not the time the request sat
// in a 512-deep client pipeline (512 send intervals, about a second
// here, when responses were read only at the cap).
func TestOpenLoopTimesResponsesFromSend(t *testing.T) {
	const (
		rate  = 1000 // submissions/s over all connections
		conns = 2
		tasks = 600 // per tenant, one tenant per connection
	)
	addr, _ := startServer(t)
	rep := runGridload(t, "-addr", addr, "-mode", "open", "-rate", strconv.Itoa(rate),
		"-conns", strconv.Itoa(conns), "-tenants", strconv.Itoa(conns), "-tasks", strconv.Itoa(tasks))
	if rep.Submitted != conns*tasks || rep.Accepted != conns*tasks || rep.Lost != 0 {
		t.Fatalf("summary: %+v", rep)
	}
	interval := time.Second * conns / rate
	limit := float64(maxInflight*interval/10) / 1e6
	if rep.Latency.P50 > limit {
		t.Errorf("open-loop p50 %.1f ms, want under %.0f ms (a tenth of %d send intervals)", rep.Latency.P50, limit, maxInflight)
	}
}

// TestBackToBackRunsAuditOwnTasks: a second run against the same server
// audits only its own tasks, so neither run reports lost (or negatively
// lost) tasks. The second run repeats the first run's task IDs, which the
// server rejects as duplicates, and adds as many new ones.
func TestBackToBackRunsAuditOwnTasks(t *testing.T) {
	const tenants = 8
	addr, srv := startServer(t)
	args := func(tasks int) []string {
		return []string{"-addr", addr, "-tenants", strconv.Itoa(tenants), "-tasks", strconv.Itoa(tasks), "-conns", "2"}
	}
	first := runGridload(t, args(20)...)
	if first.Accepted != tenants*20 || first.Lost != 0 || first.Completed+first.Evicted != first.Accepted {
		t.Fatalf("first run: %+v", first)
	}
	// The first run's drain closed admission; reopen it.
	if resp := srv.Do(controlplane.Request{Op: controlplane.OpResume}); !resp.OK {
		t.Fatalf("resume: %+v", resp)
	}
	second := runGridload(t, args(40)...)
	if second.Submitted != tenants*40 || second.Accepted != tenants*20 || second.Lost != 0 ||
		second.Completed+second.Evicted != second.Accepted {
		t.Fatalf("second run: %+v", second)
	}
}
