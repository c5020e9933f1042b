package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/controlplane"
	"repro/internal/obs"
	"repro/internal/sim"
)

// conns is how many connections the load generator opens: one per CPU of
// the machine the benchmark was sized on, so client and server never
// outnumber the cores with busy connections.
const conns = 2

// rmsdShape is one control-plane workload. Tenant t submits only over
// connection t % conns, so every tenant's requests reach the server in one
// fixed order and its outcomes repeat exactly from round to round.
type rmsdShape struct {
	tenants, tasks int // closed phase: tasks per tenant
	// openRate submits/s (over all connections) for openSeconds precede
	// the closed phase when openRate > 0.
	openRate, openSeconds float64
	// interleave sends each connection's closed-phase requests
	// round-robin over its tenants; otherwise tenant by tenant.
	interleave bool
	// Sizes when env.toy is set (the tests' smoke runs).
	toyTenants, toyTasks int
	toyOpenSeconds       float64
}

// rmsdSteady: a fixed tenant population under a paced open loop well
// below capacity (latency without queueing), then a closed loop (how fast
// the control plane turns submits into finished tasks).
var rmsdSteady = rmsdShape{
	tenants: 64, tasks: 300, openRate: 10_000, openSeconds: 1, interleave: true,
	toyTenants: 8, toyTasks: 20, toyOpenSeconds: 0.1,
}

// rmsdFanout: many tenants with few tasks each, so tenant creation is on
// the path of one submit in ten.
var rmsdFanout = rmsdShape{
	tenants: 10_000, tasks: 10,
	toyTenants: 50, toyTasks: 3,
}

// request is one pre-encoded submit and the exact response line it must
// get: the server answers an accepted submit with a fixed JSON shape.
type request struct {
	tenant     int
	line, want []byte
}

// connPlan is one connection's requests.
type connPlan struct {
	open, closed []request
	// interval is the open-loop spacing of this connection's requests.
	interval time.Duration
}

var tierNames = []string{"full", "virtualized", "background"}
var scenarioNames = []string{"software", "softcore", "userhw"}

// plan generates the round's requests from the seed: each tenant draws
// its tasks from its own split of the seed, with cmd/gridload's task
// mix (Pareto sizes, uniform parallel fraction, one of three scenarios).
func (s rmsdShape) plan(seed uint64, toy bool) ([conns]connPlan, error) {
	tenants, tasks, openSeconds := s.tenants, s.tasks, s.openSeconds
	if toy {
		tenants, tasks, openSeconds = s.toyTenants, s.toyTasks, s.toyOpenSeconds
	}
	rngs := make([]*sim.RNG, tenants)
	root := sim.NewRNG(seed)
	for t := range rngs {
		rngs[t] = root.Split(uint64(t))
	}
	sizes := sim.Pareto{Xm: 50, Alpha: 1.5}
	seq := make([]int, tenants)
	next := func(t int) (request, error) {
		rng := rngs[t]
		ts := &controlplane.TaskSpec{
			ID:       fmt.Sprintf("task-%05d", seq[t]),
			WorkMI:   sizes.Sample(rng),
			Parallel: rng.Float64(),
			Scenario: scenarioNames[rng.Intn(len(scenarioNames))],
		}
		seq[t]++
		if ts.Scenario == "userhw" {
			ts.Design = "aes128"
		}
		name := fmt.Sprintf("tenant-%05d", t)
		line, err := json.Marshal(controlplane.Request{Op: controlplane.OpSubmit, Tenant: name, Tier: tierNames[t%len(tierNames)], Task: ts})
		if err != nil {
			return request{}, err
		}
		want, err := json.Marshal(controlplane.Response{OK: true, Op: controlplane.OpSubmit, Tenant: name, TaskID: ts.ID, State: "queued"})
		if err != nil {
			return request{}, err
		}
		return request{tenant: t, line: append(line, '\n'), want: append(want, '\n')}, nil
	}
	var p [conns]connPlan
	open := int(s.openRate * openSeconds)
	for k := 0; k < open; k++ {
		rq, err := next(k % tenants)
		if err != nil {
			return p, err
		}
		c := rq.tenant % conns
		p[c].open = append(p[c].open, rq)
	}
	if s.openRate > 0 {
		for c := range p {
			p[c].interval = time.Duration(float64(time.Second) * conns / s.openRate)
		}
	}
	emit := func(t int) error {
		rq, err := next(t)
		if err == nil {
			p[t%conns].closed = append(p[t%conns].closed, rq)
		}
		return err
	}
	if s.interleave {
		for i := 0; i < tasks; i++ {
			for t := 0; t < tenants; t++ {
				if err := emit(t); err != nil {
					return p, err
				}
			}
		}
	} else {
		for t := 0; t < tenants; t++ {
			for i := 0; i < tasks; i++ {
				if err := emit(t); err != nil {
					return p, err
				}
			}
		}
	}
	return p, nil
}

// client is one load-generator connection.
type client struct {
	conn net.Conn
	rd   *bufio.Reader
}

// exchange sends one control request and returns its response line.
func (c *client) exchange(line string) ([]byte, error) {
	if _, err := c.conn.Write([]byte(line + "\n")); err != nil {
		return nil, err
	}
	return c.rd.ReadBytes('\n')
}

// expect sends a control request whose response must be want.
func (c *client) expect(line, want string) error {
	got, err := c.exchange(line)
	if err != nil {
		return fmt.Errorf("%s: %w", line, err)
	}
	if string(bytes.TrimSpace(got)) != want {
		return fmt.Errorf("%s: got %s, want %s", line, bytes.TrimSpace(got), want)
	}
	return nil
}

// phase is what one connection's share of a load phase returns.
type phase struct {
	latMS, lateMS []float64
	failed        int
	firstBad      string
	err           error
}

func (ph *phase) check(i int, got, want []byte) {
	if !bytes.Equal(got, want) {
		ph.failed++
		if ph.firstBad == "" {
			ph.firstBad = fmt.Sprintf("request %d: got %q, want %q", i, got, want)
		}
	}
}

// openLoop sends reqs on schedule — request i is due at t0 + i·interval —
// whether or not earlier responses have arrived, and times each response
// from its due time, so a stall also counts against the requests it
// delays. A separate reader goroutine takes the responses. Requests that
// are due together (the writer woke late) go out in one write; lateMS
// records how late each was sent.
func openLoop(c *client, reqs []request, interval time.Duration, t0 time.Time, log *spanLog, parent int64) phase {
	ph := phase{latMS: make([]float64, len(reqs)), lateMS: make([]float64, len(reqs))}
	due := func(i int) time.Time { return t0.Add(time.Duration(i) * interval) }
	var rd phase
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range reqs {
			line, err := c.rd.ReadSlice('\n')
			if err != nil {
				rd.err = fmt.Errorf("reading response %d: %w", i, err)
				c.conn.Close() // unblocks the writer
				return
			}
			now := time.Now()
			ph.latMS[i] = float64(now.Sub(due(i))) / 1e6
			rd.check(i, line, reqs[i].want)
			if log != nil {
				log.add("wire", "submit", parent, int64(i+1), due(i), now)
			}
		}
	}()
	buf := make([]byte, 0, 64<<10)
	for i := 0; i < len(reqs); {
		now := time.Now()
		if d := due(i).Sub(now); d > 0 {
			time.Sleep(d)
			continue
		}
		buf = buf[:0]
		for ; i < len(reqs) && !due(i).After(now); i++ {
			ph.lateMS[i] = float64(now.Sub(due(i))) / 1e6
			buf = append(buf, reqs[i].line...)
		}
		if _, err := c.conn.Write(buf); err != nil {
			ph.err = fmt.Errorf("writing: %w", err)
			c.conn.Close() // unblocks the reader
			break
		}
	}
	wg.Wait()
	ph.failed, ph.firstBad = rd.failed, rd.firstBad
	if ph.err == nil {
		ph.err = rd.err
	}
	return ph
}

// closedLoop sends each request after the previous response, timing the
// round trip.
func closedLoop(c *client, reqs []request, log *spanLog, parent int64) phase {
	ph := phase{latMS: make([]float64, len(reqs))}
	for i, rq := range reqs {
		start := time.Now()
		if _, err := c.conn.Write(rq.line); err != nil {
			ph.err = fmt.Errorf("writing request %d: %w", i, err)
			return ph
		}
		line, err := c.rd.ReadSlice('\n')
		if err != nil {
			ph.err = fmt.Errorf("reading response %d: %w", i, err)
			return ph
		}
		end := time.Now()
		ph.latMS[i] = float64(end.Sub(start)) / 1e6
		ph.check(i, line, rq.want)
		if log != nil {
			log.add("wire", "submit", parent, int64(i+1), start, end)
		}
	}
	return ph
}

// onAll runs f once per connection concurrently and returns the results.
func onAll(f func(c int) phase) [conns]phase {
	var out [conns]phase
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out[c] = f(c)
		}(c)
	}
	wg.Wait()
	return out
}

// roundDeadline bounds every client read and write of a round.
const roundDeadline = 2 * time.Minute

// server is one round's in-process rmsd on loopback.
type server struct {
	srv     *controlplane.Server
	serve   chan error
	clients [conns]*client
}

func startServer(cfg controlplane.Config) (*server, error) {
	srv, err := controlplane.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown()
		return nil, err
	}
	s := &server{srv: srv, serve: make(chan error, 1)}
	go func() { s.serve <- srv.Serve(ln) }()
	for c := range s.clients {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			s.stop()
			return nil, err
		}
		// A server that stops answering fails the round instead of
		// hanging the run.
		if err := conn.SetDeadline(time.Now().Add(roundDeadline)); err != nil {
			conn.Close()
			s.stop()
			return nil, err
		}
		s.clients[c] = &client{conn: conn, rd: bufio.NewReaderSize(conn, 64<<10)}
		// An answered ping means Serve is running; a Shutdown before that
		// would make Serve fail.
		if err := s.clients[c].expect(`{"op":"ping"}`, `{"ok":true,"op":"ping"}`); err != nil {
			s.stop()
			return nil, err
		}
	}
	return s, nil
}

// stop closes the connections, shuts the server down and waits for its
// accept loop to return.
func (s *server) stop() error {
	for _, c := range s.clients {
		if c != nil {
			c.conn.Close()
		}
	}
	s.srv.Shutdown()
	return <-s.serve
}

// tenantDigest summarizes the per-tenant outcomes, which depend only on
// the seed and each tenant's request order.
func tenantDigest(stats []controlplane.TenantStats) string {
	h := fnv.New64a()
	for _, st := range stats {
		fmt.Fprintf(h, "%s %s %d %d %d %d %d %d %d %x %x\n", st.Tenant, st.Tier, st.Submitted, st.Accepted,
			st.Rejected, st.Completed, st.Evicted, st.Canceled, st.Retries,
			math.Float64bits(st.CostUnits), math.Float64bits(st.VirtualSeconds))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// round boots a fresh server (set-up), runs the open and closed phases
// over the wire, drains, and checks the server's own accounting against
// what was sent. A fresh server per round keeps every round's audit to
// that round's requests.
func (s rmsdShape) round(e *env) (*round, error) {
	type inputs struct {
		p    [conns]connPlan
		srv  *server
		sink *countSink
	}
	cfg := controlplane.DefaultConfig()
	cfg.Seed = e.seed
	in, setupS, err := repeatSetup(func() (inputs, error) {
		p, err := s.plan(e.seed, e.toy)
		if err != nil {
			return inputs{}, err
		}
		cfg := cfg
		var sink *countSink
		if e.kind == traced {
			sink = newCountSink()
			cfg.Sink = sink
		}
		srv, err := startServer(cfg)
		return inputs{p, srv, sink}, err
	}, func(in inputs) error { return in.srv.stop() })
	if err != nil {
		return nil, err
	}
	p, srv, sink := in.p, in.srv, in.sink
	r := &round{setupS: setupS, layer: map[string]float64{}}
	var closedRTT float64
	r.tasks, closedRTT, err = measure(e, r, srv, p, sink)
	if stopErr := srv.stop(); err == nil && stopErr != nil {
		err = fmt.Errorf("serve: %w", stopErr)
	}
	if err != nil {
		return nil, err
	}
	if e.kind == traced {
		if err := doPass(e, r, cfg.Seed, p, closedRTT); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// measure runs the round's load phases and checks. It returns the number
// of closed-phase tasks the round's throughput counts and their median
// round trip in milliseconds.
func measure(e *env, r *round, srv *server, p [conns]connPlan, sink *countSink) (float64, float64, error) {
	var log *spanLog
	var parent int64
	if e.kind == traced {
		log = e.log
		parent = log.begin("bench", "round", 0, log.now())
		defer func() { log.end(parent, log.now()) }()
	}
	ctl := srv.clients[0]
	if err := e.begin(); err != nil {
		return 0, 0, err
	}
	var open [conns]phase
	if len(p[0].open)+len(p[1].open) > 0 {
		start := time.Now().Add(time.Millisecond)
		open = onAll(func(c int) phase { return openLoop(srv.clients[c], p[c].open, p[c].interval, start, log, parent) })
		if err := ctl.expect(`{"op":"drain"}`, `{"ok":true,"op":"drain"}`); err != nil {
			return 0, 0, err
		}
		if err := ctl.expect(`{"op":"resume"}`, `{"ok":true,"op":"resume"}`); err != nil {
			return 0, 0, err
		}
	}
	closedStart := time.Now()
	closed := onAll(func(c int) phase { return closedLoop(srv.clients[c], p[c].closed, log, parent) })
	drainStart := time.Now()
	if err := ctl.expect(`{"op":"drain"}`, `{"ok":true,"op":"drain"}`); err != nil {
		return 0, 0, err
	}
	end := time.Now()
	if err := e.end(r); err != nil {
		return 0, 0, err
	}
	r.busyS = end.Sub(closedStart).Seconds()
	r.layer["controlplane.drain_s"] = end.Sub(drainStart).Seconds()

	var openLat, late, closedLat []float64
	sent, closedTasks := 0, 0
	for c := 0; c < conns; c++ {
		for _, ph := range []phase{open[c], closed[c]} {
			if ph.err != nil {
				return 0, 0, fmt.Errorf("connection %d: %w", c, ph.err)
			}
			r.failed += ph.failed
			if ph.firstBad != "" {
				r.violate("connection %d: %s", c, ph.firstBad)
			}
		}
		openLat = append(openLat, open[c].latMS...)
		late = append(late, open[c].lateMS...)
		closedLat = append(closedLat, closed[c].latMS...)
		closedTasks += len(p[c].closed)
		sent += len(p[c].open) + len(p[c].closed)
	}
	r.attempted = sent
	r.latMS = closedLat
	if len(openLat) > 0 {
		r.latMS = openLat
	}
	r.layer["load.late_p50_ms"] = median(late)
	r.layer["load.late_p99_ms"] = tailOrZero(late, 0.99)
	r.layer["load.submit_p90_ms"] = tailOrZero(r.latMS, 0.90)
	r.layer["load.submit_p99_ms"] = tailOrZero(r.latMS, 0.99)

	stats, err := fetchStats(ctl)
	if err != nil {
		return 0, 0, err
	}
	audit(r, stats, sent, sent-r.failed)
	if sink != nil {
		n := float64(sent)
		r.layer["controlplane.events_per_task"] = ratio(float64(sink.total()), n)
		r.layer["faults.dispatches_per_task"] = ratio(float64(sink.count(obs.KindDispatch)), n)
		r.layer["fabric.reconfigs_per_task"] = ratio(float64(sink.count(obs.KindReconfig)), n)
	}
	return float64(closedTasks), median(closedLat), nil
}

// fetchStats asks the server for every tenant's counters.
func fetchStats(c *client) ([]controlplane.TenantStats, error) {
	line, err := c.exchange(`{"op":"stats"}`)
	if err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	var resp controlplane.Response
	if err := json.Unmarshal(line, &resp); err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	if !resp.OK {
		return nil, fmt.Errorf("stats: %s: %s", resp.Code, resp.Error)
	}
	return resp.Tenants, nil
}

// audit checks the server's per-tenant accounting after a drain: every
// tenant conserves its tasks, nothing is in flight, and the totals match
// what the client sent and saw accepted. It sets the round's digest,
// turnaround and failed share.
func audit(r *round, stats []controlplane.TenantStats, sent, accepted int) {
	var tot controlplane.TenantStats
	for _, st := range stats {
		if st.Submitted != st.Completed+st.Rejected+st.Evicted+st.Canceled+st.InFlight {
			r.violate("tenant %s: conservation: submitted %d != completed %d + rejected %d + evicted %d + canceled %d + in flight %d",
				st.Tenant, st.Submitted, st.Completed, st.Rejected, st.Evicted, st.Canceled, st.InFlight)
		}
		if st.InFlight != 0 {
			r.violate("tenant %s: %d tasks in flight after drain", st.Tenant, st.InFlight)
		}
		tot.Submitted += st.Submitted
		tot.Accepted += st.Accepted
		tot.Rejected += st.Rejected
		tot.Completed += st.Completed
		tot.Evicted += st.Evicted
		tot.Canceled += st.Canceled
		tot.InFlight += st.InFlight
		tot.VirtualSeconds += st.VirtualSeconds
	}
	if tot.Submitted != sent || tot.Accepted != accepted {
		r.violate("server counted %d submitted / %d accepted, client sent %d / saw %d accepted",
			tot.Submitted, tot.Accepted, sent, accepted)
	}
	if lost := tot.Accepted - tot.Completed - tot.Evicted - tot.Canceled - tot.InFlight; lost != 0 {
		r.violate("%d accepted tasks lost", lost)
	}
	r.digest = tenantDigest(stats)
	r.layer["model.failed_share"] = ratio(float64(tot.Rejected+tot.Evicted), float64(tot.Submitted))
	r.turnaroundS = ratio(tot.VirtualSeconds, float64(tot.Completed))
}

// doPass replays the round's requests in process — DecodeRequest on the
// sent lines, then Server.Do on a fresh server — to time the control
// plane without the wire, and to weigh tenant and task state on the heap.
// Each tenant's first submit runs first (tenant creation), then the rest
// in wire order; per-tenant order is unchanged, so the outcomes must
// equal the wire round's.
func doPass(e *env, r *round, seed uint64, p [conns]connPlan, closedRTT float64) error {
	span := e.log.begin("bench", "do-pass", 0, e.log.now())
	defer func() { e.log.end(span, e.log.now()) }()
	var all []request
	for c := range p {
		all = append(all, p[c].open...)
	}
	for c := range p {
		all = append(all, p[c].closed...)
	}
	reqs := make([]controlplane.Request, len(all))
	var decodeNs int64
	for i, rq := range all {
		t0 := e.log.now()
		req, err := controlplane.DecodeRequest(rq.line[:len(rq.line)-1], 0)
		t1 := e.log.now()
		e.log.leaf("controlplane", "DecodeRequest", int64(i+1), t0, t1)
		decodeNs += t1 - t0
		if err != nil {
			return fmt.Errorf("decoding request %d: %w", i, err)
		}
		reqs[i] = req
	}

	cfg := controlplane.DefaultConfig()
	cfg.Seed = seed
	srv, err := controlplane.New(cfg)
	if err != nil {
		return err
	}
	defer srv.Shutdown()
	do := func(i int) (float64, error) {
		t0 := e.log.now()
		resp := srv.Do(reqs[i])
		t1 := e.log.now()
		e.log.leaf("controlplane", "Do", int64(i+1), t0, t1)
		if !resp.OK {
			return 0, fmt.Errorf("request %d: %s: %s", i, resp.Code, resp.Error)
		}
		return float64(t1-t0) / 1e3, nil
	}
	seen := map[int]bool{}
	var first, rest []int
	for i, rq := range all {
		if seen[rq.tenant] {
			rest = append(rest, i)
		} else {
			seen[rq.tenant] = true
			first = append(first, i)
		}
	}
	heap0 := liveHeap()
	var firstUS, doUS []float64
	for _, i := range first {
		us, err := do(i)
		if err != nil {
			return err
		}
		firstUS = append(firstUS, us)
	}
	heap1 := liveHeap()
	for _, i := range rest {
		us, err := do(i)
		if err != nil {
			return err
		}
		doUS = append(doUS, us)
	}
	if resp := srv.Do(controlplane.Request{Op: controlplane.OpDrain}); !resp.OK {
		return fmt.Errorf("drain: %s: %s", resp.Code, resp.Error)
	}
	heap2 := liveHeap()
	stats, err := srv.StatsAll()
	if err != nil {
		return err
	}
	if d := tenantDigest(stats); d != r.digest {
		r.violate("in-process replay outcomes %s differ from the wire round's %s", d, r.digest)
	}
	doUS = append(doUS, firstUS...)
	r.layer["controlplane.decode_ns"] = ratio(float64(decodeNs), float64(len(all)))
	r.layer["controlplane.do_p50_us"] = median(doUS)
	r.layer["controlplane.do_p99_us"] = tailOrZero(doUS, 0.99)
	r.layer["controlplane.first_submit_p50_us"] = median(firstUS)
	r.layer["controlplane.bytes_per_tenant"] = ratio(heap1-heap0, float64(len(first)))
	r.layer["controlplane.retained_bytes_per_task"] = ratio(heap2-heap1, float64(len(rest)))
	r.layer["wire.overhead_p50_us"] = 1000*closedRTT - median(doUS)
	return nil
}

// liveHeap collects garbage and returns the live heap in bytes.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}
