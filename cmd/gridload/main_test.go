package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
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

// TestLargeRosterStats: a stats answer longer than 16 MiB reads back
// whole, as -tenants allows up to 2^20 tenants. A stub server answers the
// stats request with a roster of 80,000 tenants, a 19.1-MB line.
func TestLargeRosterStats(t *testing.T) {
	const tenants = 80_000
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type answer struct {
		bytes int
		err   error
	}
	sent := make(chan answer, 1)
	go func() {
		n, err := answerRoster(ln, tenants)
		sent <- answer{n, err}
	}()
	c, err := dial("tcp", ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := tenantStats(c)
	if cerr := c.close(); err == nil {
		err = cerr
	}
	stub := <-sent
	if err != nil {
		t.Fatal(err)
	}
	if stub.err != nil || stub.bytes <= 16<<20 {
		t.Fatalf("the stub server wrote %d bytes, %v; want more than 16 MiB", stub.bytes, stub.err)
	}
	if len(stats) != tenants || stats[tenants-1].Tenant != fmt.Sprintf("tenant-%06d", tenants-1) || stats[tenants-1].Completed != 10 {
		t.Fatalf("read %d tenants, the last %+v", len(stats), stats[len(stats)-1])
	}
}

// answerRoster accepts one connection on ln, reads its request line and
// answers it with a roster of the given number of tenants, each as
// rmsd-fanout leaves it, written a row at a time. It returns the bytes
// of the answer.
func answerRoster(ln net.Listener, tenants int) (int, error) {
	conn, err := ln.Accept()
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	if _, err := bufio.NewReader(conn).ReadString('\n'); err != nil {
		return 0, err
	}
	w := bufio.NewWriter(conn)
	n, err := w.WriteString(`{"ok":true,"op":"stats","tenants":[`)
	for i := 0; i < tenants && err == nil; i++ {
		st := controlplane.TenantStats{Tenant: fmt.Sprintf("tenant-%06d", i), Tier: "virtualized",
			VirtualSeconds: 1234.5678901234 + float64(i), CostUnits: 98.76543210987 + float64(i)}
		st.Submitted, st.Accepted, st.Completed = 10, 10, 10
		var row []byte
		if row, err = json.Marshal(st); err == nil && i > 0 {
			row = append([]byte{','}, row...)
		}
		var m int
		m, err = w.Write(row)
		n += m
	}
	if err != nil {
		return n, err
	}
	m, err := w.WriteString("]}\n")
	if err != nil {
		return n + m, err
	}
	return n + m, w.Flush()
}

// TestOpenRateUnderConnTimeout: an open-mode rate that would leave each
// connection waiting longer than rmsd's connection timeout between
// submissions is refused, since rmsd would hang up on the connection.
func TestOpenRateUnderConnTimeout(t *testing.T) {
	var stderr bytes.Buffer
	if _, err := parseFlags([]string{"-mode", "open", "-rate", "0.001", "-tenants", "1"}, &stderr); err == nil {
		t.Error("one connection sending every 1,000 s was accepted")
	}
	if _, err := parseFlags([]string{"-mode", "open", "-rate", "1", "-tenants", "8", "-conns", "8"}, &stderr); err != nil {
		t.Errorf("eight connections each sending every 8 s were refused: %v", err)
	}
}
