// Command gridload is the seeded load driver for rmsd: it submits a
// deterministic multi-tenant workload with heavy-tailed task sizes over
// the wire protocol, drains the server, verifies that no task was lost
// (per-tenant conservation), and reports throughput and request-latency
// percentiles as JSON.
//
// Usage:
//
//	gridload -addr 127.0.0.1:7433 -tenants 50 -tasks 100          # closed loop
//	gridload -addr 127.0.0.1:7433 -mode open -rate 2000 -tasks 20 # paced arrivals
//
// Closed mode issues each connection's next request only after the
// previous response (classic closed-loop clients); open mode paces
// submissions at -rate arrivals/second across all connections and
// pipelines them, so queue depth on the server is driven by the arrival
// process, not by client think time.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/controlplane"
	"repro/internal/report"
	"repro/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Flag ceilings: gridload sizes goroutines, pacing timers, and result
// slices from these values, so a typo like -tenants 1e9 must fail fast
// instead of exhausting the client machine.
const (
	maxTenants        = 1 << 20
	maxTasksPerTenant = 1 << 20
	maxConns          = 1 << 14
	maxRate           = 1e8
)

type options struct {
	addr    string
	network string
	mode    string
	tenants int
	tasks   int
	conns   int
	rate    float64
	seed    uint64
	alpha   float64
	workXm  float64
	wait    time.Duration
	noDrain bool
}

func parseFlags(args []string, stderr io.Writer) (*options, error) {
	fs := flag.NewFlagSet("gridload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	opt := &options{}
	fs.StringVar(&opt.addr, "addr", "127.0.0.1:7433", "rmsd address")
	fs.StringVar(&opt.network, "network", "tcp", "rmsd network (tcp or unix)")
	fs.StringVar(&opt.mode, "mode", "closed", "arrival mode: closed or open")
	fs.IntVar(&opt.tenants, "tenants", 50, "number of tenants")
	fs.IntVar(&opt.tasks, "tasks", 100, "tasks per tenant")
	fs.IntVar(&opt.conns, "conns", 8, "concurrent connections")
	fs.Float64Var(&opt.rate, "rate", 1000, "open mode: total submissions/second")
	fs.Uint64Var(&opt.seed, "seed", 1, "workload seed")
	fs.Float64Var(&opt.alpha, "alpha", 1.5, "Pareto shape for task sizes (heavier tail when smaller)")
	fs.Float64Var(&opt.workXm, "work-xm", 50, "Pareto scale: minimum task size in mega-instructions")
	fs.DurationVar(&opt.wait, "wait", 15*time.Second, "how long to retry the first connection")
	fs.BoolVar(&opt.noDrain, "no-drain", false, "skip the final drain/verify phase")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments: %q", fs.Args())
	}
	if opt.mode != "closed" && opt.mode != "open" {
		return nil, fmt.Errorf("unknown mode %q", opt.mode)
	}
	if opt.tenants < 1 || opt.tasks < 1 || opt.conns < 1 {
		return nil, fmt.Errorf("tenants, tasks, and conns must be positive")
	}
	if opt.tenants > maxTenants || opt.tasks > maxTasksPerTenant || opt.conns > maxConns {
		return nil, fmt.Errorf("at most %d tenants, %d tasks per tenant, and %d connections", maxTenants, maxTasksPerTenant, maxConns)
	}
	if opt.rate > maxRate {
		return nil, fmt.Errorf("rate must be at most %g submissions/second", float64(maxRate))
	}
	if opt.conns > opt.tenants {
		opt.conns = opt.tenants
	}
	// rmsd closes a connection that sends nothing for its connection
	// timeout, so a paced connection must send more often than that.
	if opt.mode == "open" && opt.rate > 0 && float64(opt.conns)/opt.rate >= controlplane.ConnTimeout.Seconds() {
		return nil, fmt.Errorf("at rate %g each of %d connections would wait longer than rmsd's %v connection timeout between submissions", opt.rate, opt.conns, controlplane.ConnTimeout)
	}
	return opt, nil
}

// client is one wire connection. It reads each answer with one
// json.Decoder, which takes a line of any length, so the roster of any
// number of tenants gridload can ask for reads back.
type client struct {
	conn net.Conn
	enc  *json.Encoder
	dec  *json.Decoder
}

// dial connects, retrying until the deadline — rmsd may still be
// booting when gridload starts (the CI smoke job relies on this).
func dial(network, addr string, wait time.Duration) (*client, error) {
	deadline := time.Now().Add(wait)
	for {
		conn, err := net.Dial(network, addr)
		if err == nil {
			return &client{conn: conn, enc: json.NewEncoder(conn), dec: json.NewDecoder(conn)}, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("dialing %q %q: %w", network, addr, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func (c *client) close() error { return c.conn.Close() }

// roundTrip sends one request and reads its response.
func (c *client) roundTrip(req controlplane.Request) (controlplane.Response, error) {
	if err := c.enc.Encode(req); err != nil {
		return controlplane.Response{}, err
	}
	return c.read()
}

func (c *client) send(req controlplane.Request) error { return c.enc.Encode(req) }

func (c *client) read() (controlplane.Response, error) {
	var resp controlplane.Response
	if err := c.dec.Decode(&resp); err != nil {
		return controlplane.Response{}, err
	}
	return resp, nil
}

// The JSON result gridload prints is report.SoakSummary: the release
// report loads the same type back, so the two cannot drift apart.

func percentiles(rtts []float64) report.LatencyMS {
	if len(rtts) == 0 {
		return report.LatencyMS{}
	}
	sort.Float64s(rtts)
	at := func(p float64) float64 {
		i := int(p * float64(len(rtts)-1))
		return rtts[i]
	}
	return report.LatencyMS{P50: at(0.50), P90: at(0.90), P99: at(0.99), Max: rtts[len(rtts)-1]}
}

var tierNames = []string{"full", "virtualized", "background"}
var scenarioNames = []string{"software", "softcore", "userhw"}

// workerResult is one connection's share of the run.
type workerResult struct {
	submitted, accepted int
	rtts                []float64
	err                 error
}

// record counts one response to a request sent at sentAt.
func (r *workerResult) record(resp controlplane.Response, sentAt time.Time) {
	r.rtts = append(r.rtts, float64(time.Since(sentAt))/1e6)
	if resp.OK {
		r.accepted++
	}
}

// maxInflight caps how many requests an open-mode connection leaves
// unanswered. It is backpressure against a server that falls behind, not
// a batch size: responses are read as they arrive.
const maxInflight = 512

// eachRequest calls fn with the worker's submissions in send order: every
// task of every tenant the worker owns, drawn from the worker's split of
// the seed.
func eachRequest(opt *options, worker int, fn func(controlplane.Request) error) error {
	rng := sim.NewRNG(opt.seed).Split(uint64(worker))
	sizes := sim.Pareto{Xm: opt.workXm, Alpha: opt.alpha}
	for tenant := worker; tenant < opt.tenants; tenant += opt.conns {
		name := fmt.Sprintf("tenant-%04d", tenant)
		tier := tierNames[tenant%len(tierNames)]
		for i := 0; i < opt.tasks; i++ {
			ts := &controlplane.TaskSpec{
				ID:       fmt.Sprintf("t%04d-%05d", tenant, i),
				WorkMI:   sizes.Sample(rng),
				Parallel: rng.Float64(),
				Scenario: scenarioNames[rng.Intn(len(scenarioNames))],
			}
			if ts.Scenario == "userhw" {
				ts.Design = "aes128"
			}
			if err := fn(controlplane.Request{Op: controlplane.OpSubmit, Tenant: name, Tier: tier, Task: ts}); err != nil {
				return err
			}
		}
	}
	return nil
}

// drive submits every task for the worker's tenants over one
// connection. In closed mode each submit waits for its response; in
// open mode submits are paced at interval and pipelined.
func drive(opt *options, worker int, interval time.Duration) workerResult {
	res := workerResult{}
	c, err := dial(opt.network, opt.addr, opt.wait)
	if err != nil {
		res.err = err
		return res
	}
	defer func() {
		if cerr := c.close(); cerr != nil && res.err == nil {
			res.err = cerr
		}
	}()
	if opt.mode == "open" {
		res.err = openLoop(c, opt, worker, interval, &res)
		return res
	}
	res.err = eachRequest(opt, worker, func(req controlplane.Request) error {
		if err := c.send(req); err != nil {
			return err
		}
		sentAt := time.Now()
		res.submitted++
		resp, err := c.read()
		if err != nil {
			return err
		}
		res.record(resp, sentAt)
		return nil
	})
	return res
}

// openLoop sends the worker's requests at interval whether or not earlier
// responses have arrived, while a reader goroutine takes each response as
// it arrives and times it from its send (the protocol answers a
// connection's requests in order). At most maxInflight requests go
// unanswered; past that the sender waits for the reader.
func openLoop(c *client, opt *options, worker int, interval time.Duration, res *workerResult) error {
	window := make(chan struct{}, maxInflight)
	sent := make(chan time.Time, maxInflight) // never blocks: len(sent) <= len(window)
	readerDone := make(chan struct{})
	var readErr error
	go func() {
		defer close(readerDone)
		for sentAt := range sent {
			resp, err := c.read()
			if err != nil {
				readErr = err
				return
			}
			res.record(resp, sentAt)
			<-window
		}
	}()
	next := time.Now()
	err := eachRequest(opt, worker, func(req controlplane.Request) error {
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		next = next.Add(interval)
		select {
		case window <- struct{}{}:
		case <-readerDone:
			return errReaderStopped
		}
		if err := c.send(req); err != nil {
			return err
		}
		sent <- time.Now()
		res.submitted++
		return nil
	})
	close(sent)
	if err != nil && err != errReaderStopped {
		// Unblock a reader waiting on responses that will never come.
		_ = c.conn.Close()
	}
	<-readerDone
	if err == nil || err == errReaderStopped {
		return readErr
	}
	return err
}

// errReaderStopped stops an open loop's sender once its reader has failed;
// the reader's error is the one reported.
var errReaderStopped = errors.New("response reader stopped")

func run(args []string, stdout, stderr io.Writer) int {
	opt, err := parseFlags(args, stderr)
	if err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		fmt.Fprintln(stderr, "gridload:", err)
		return 2
	}

	interval := time.Duration(0)
	if opt.mode == "open" && opt.rate > 0 {
		// Per-connection pacing adds up to the requested total rate.
		interval = time.Duration(float64(time.Second) * float64(opt.conns) / opt.rate)
	}

	// A control connection snapshots every tenant's counters before the
	// load, so the audit below covers this run's tasks only, even on a
	// server that earlier runs already loaded. Each control phase dials
	// a connection of its own, so none waits through the load, which
	// may outlast rmsd's connection timeout.
	var snapshot []controlplane.TenantStats
	if err := control(opt, func(ctl *client) (err error) {
		snapshot, err = tenantStats(ctl)
		return err
	}); err != nil {
		fmt.Fprintln(stderr, "gridload:", err)
		return 1
	}
	before := make(map[string]controlplane.TenantStats, len(snapshot))
	for _, st := range snapshot {
		before[st.Tenant] = st
	}

	start := time.Now()
	results := make([]workerResult, opt.conns)
	var wg sync.WaitGroup
	for w := 0; w < opt.conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w] = drive(opt, w, interval)
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	rep := report.SoakSummary{Mode: opt.mode, Tenants: opt.tenants, TasksPerTenant: opt.tasks, ElapsedSeconds: elapsed}
	var rtts []float64
	for w, res := range results {
		if res.err != nil {
			fmt.Fprintf(stderr, "gridload: worker %d: %v\n", w, res.err)
			return 1
		}
		rep.Submitted += res.submitted
		rep.Accepted += res.accepted
		rtts = append(rtts, res.rtts...)
	}
	rep.Rejected = rep.Submitted - rep.Accepted
	if elapsed > 0 {
		rep.ThroughputRPS = float64(rep.Submitted) / elapsed
	}
	rep.Latency = percentiles(rtts)

	// Control phase: drain the server and verify conservation from the
	// authoritative per-tenant counters.
	var after []controlplane.TenantStats
	if err := control(opt, func(ctl *client) (err error) {
		if !opt.noDrain {
			if resp, err := ctl.roundTrip(controlplane.Request{Op: controlplane.OpDrain}); err != nil || !resp.OK {
				return fmt.Errorf("drain failed: %v %q", err, resp.Error)
			}
		}
		after, err = tenantStats(ctl)
		return err
	}); err != nil {
		fmt.Fprintln(stderr, "gridload:", err)
		return 1
	}
	var repairedTasks, inFlight int
	var repairSeconds, virtualSeconds float64
	for _, st := range after {
		// Outcomes are this run's share: the change since the snapshot.
		was := before[st.Tenant]
		rep.Completed += st.Completed - was.Completed
		rep.Evicted += st.Evicted - was.Evicted
		rep.Canceled += st.Canceled - was.Canceled
		rep.InFlight += st.InFlight - was.InFlight
		rep.Retries += st.Retries - was.Retries
		rep.FaultAborts += st.FaultAborts - was.FaultAborts
		repairedTasks += st.RepairedTasks - was.RepairedTasks
		repairSeconds += st.RepairSeconds - was.RepairSeconds
		virtualSeconds += st.VirtualSeconds - was.VirtualSeconds
		inFlight += st.InFlight
		// Conservation holds for the lifetime counters.
		if st.Submitted != st.Completed+st.Rejected+st.Evicted+st.Canceled+st.InFlight {
			fmt.Fprintf(stderr, "gridload: tenant %q violates conservation: submitted=%d completed=%d rejected=%d evicted=%d canceled=%d in_flight=%d\n",
				st.Tenant, st.Submitted, st.Completed, st.Rejected, st.Evicted, st.Canceled, st.InFlight)
			rep.Lost++
		}
	}
	rep.Lost += rep.Accepted - rep.Completed - rep.Evicted - rep.Canceled - rep.InFlight
	if repairedTasks > 0 {
		rep.MeanMTTRSeconds = repairSeconds / float64(repairedTasks)
	}
	if virtualSeconds > 0 {
		// Availability is the fraction of aggregate virtual time the
		// tenants' slices were not repairing from a fault, clamped: a
		// pathological trace cannot report a negative availability.
		rep.Availability = 1 - repairSeconds/virtualSeconds
		if rep.Availability < 0 {
			rep.Availability = 0
		}
	}

	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(stderr, "gridload:", err)
		return 1
	}
	if rep.Lost != 0 {
		fmt.Fprintf(stderr, "gridload: %d tasks lost\n", rep.Lost)
		return 1
	}
	if !opt.noDrain && inFlight != 0 {
		fmt.Fprintf(stderr, "gridload: %d tasks still in flight after drain\n", inFlight)
		return 1
	}
	return 0
}

// control runs fn over a control connection of its own, closed after.
func control(opt *options, fn func(*client) error) error {
	ctl, err := dial(opt.network, opt.addr, opt.wait)
	if err != nil {
		return err
	}
	err = fn(ctl)
	if cerr := ctl.close(); err == nil {
		err = cerr
	}
	return err
}

// tenantStats fetches every tenant's counters, sorted by tenant.
func tenantStats(ctl *client) ([]controlplane.TenantStats, error) {
	resp, err := ctl.roundTrip(controlplane.Request{Op: controlplane.OpStats})
	if err != nil {
		return nil, fmt.Errorf("stats failed: %w", err)
	}
	if !resp.OK {
		return nil, fmt.Errorf("stats failed: %q", resp.Error)
	}
	return resp.Tenants, nil
}
