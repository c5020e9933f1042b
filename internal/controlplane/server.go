// Package controlplane is the multi-tenant control plane over the RMS: a
// long-running server speaking a line-delimited JSON wire protocol
// (submit/status/cancel/stats/drain), with per-tenant admission control
// (token-bucket quotas and bounded queues) and RC3E-style service tiers
// mapping onto dispatch priority and retry policy. Tenants are partitioned
// across deterministic shards, so one server sustains on the order of 10^6
// queued tasks from thousands of tenants while per-tenant outcomes stay a
// pure function of (seed, tenant, request sequence) — independent of the
// shard count.
package controlplane

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Config parameterizes a Server.
type Config struct {
	// Shards is the dispatcher width; ≤ 0 selects DefaultShards.
	// Per-tenant results do not depend on it.
	Shards int
	// Seed roots every tenant's deterministic engine: tenant seeds are
	// split from it by tenant-name hash, independent of sharding.
	Seed uint64
	// Faults optionally injects a fault model into every tenant slice.
	Faults faults.Spec
	// Sink receives per-tenant lifecycle events and gauges when set.
	// Sinks must be safe for concurrent use (the obs contract); shards
	// emit from their own goroutines.
	Sink obs.TraceSink
	// NowNanos is the admission clock feeding token-bucket refill (the
	// only wall-clock input the control plane has). nil disables rate
	// limiting; queue bounds still apply.
	NowNanos func() int64
	// MaxQueueOverride / RateOverride / BurstOverride replace the
	// per-tier admission defaults when positive (mainly for tests and
	// load drivers).
	MaxQueueOverride int
	RateOverride     float64
	BurstOverride    float64
	// SampleEvery emits a per-tenant gauge sample every N completions
	// when positive.
	SampleEvery int
}

// DefaultShards is the dispatcher width when Config.Shards is unset.
const DefaultShards = 4

// MaxShards caps the dispatcher width: each shard costs a goroutine and
// a 256-slot inbox, so a runaway configuration value is clamped rather
// than allocated.
const MaxShards = 1024

// DefaultConfig returns a deterministic quota-free configuration.
func DefaultConfig() Config { return Config{Shards: DefaultShards, Seed: 1} }

// Server is the control plane: shards plus the connection front end.
// Request routing is lock-free (atomic flags and channel sends); the
// mutex only guards the listener/connection roster.
type Server struct {
	cfg    Config
	rng    *sim.RNG // seed splitter; only the pure SplitSeed is used
	shards []*shard
	// policies holds each tier's policy under cfg, indexed by Tier: every
	// tenant of a tier points at its entry.
	policies [len(tierNames)]TierPolicy

	draining atomic.Bool
	paused   atomic.Bool
	closed   atomic.Bool

	// wg joins shard loops, accept loops, and connection handlers.
	wg sync.WaitGroup

	mu        sync.Mutex // guards listeners and conns
	listeners []net.Listener
	conns     map[net.Conn]struct{}

	shutdownOnce sync.Once
	shutdownCh   chan struct{}
}

// New starts a server's shards. The caller must Shutdown it.
func New(cfg Config) (*Server, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultShards
	}
	if cfg.Shards > MaxShards {
		// Each shard is a goroutine plus a buffered inbox; an absurd
		// operator value must not translate into an absurd allocation.
		cfg.Shards = MaxShards
	}
	if cfg.Faults.Enabled() {
		if err := cfg.Faults.Validate(); err != nil {
			return nil, fmt.Errorf("controlplane: %w", err)
		}
	}
	s := &Server{
		cfg:        cfg,
		rng:        sim.NewRNG(cfg.Seed),
		conns:      make(map[net.Conn]struct{}),
		shutdownCh: make(chan struct{}),
	}
	s.policies = tierPolicies(&s.cfg)
	s.shards = make([]*shard, cfg.Shards)
	for i := range s.shards {
		s.shards[i] = newShard(i, s)
	}
	for _, sh := range s.shards {
		s.wg.Add(1)
		go sh.loop()
	}
	return s, nil
}

// tenantHash is 64-bit FNV-1a over the tenant name: the shard partition
// key and the tenant seed stream, deliberately independent of shard
// count and arrival order.
func tenantHash(id string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime
	}
	return h
}

func (s *Server) shardFor(tenant string) *shard {
	return s.shards[tenantHash(tenant)%uint64(len(s.shards))]
}

// tenantSeed derives a tenant's engine seed from the server seed. Pure:
// the same (server seed, tenant) pair always yields the same seed.
func (s *Server) tenantSeed(tenant string) uint64 {
	return s.rng.SplitSeed(tenantHash(tenant))
}

func (s *Server) now() int64 {
	if s.cfg.NowNanos != nil {
		return s.cfg.NowNanos()
	}
	return 0
}

// errShutdown is the response for requests caught by a shutdown.
func errShutdown(op string) Response {
	return errorResponse(op, errWire(CodeInternal, "server is shutting down"))
}

// Do serves one decoded request. It is safe for concurrent use and is
// the same entry point the wire front end drives, so in-process callers
// (tests, embedders) get identical semantics without a socket.
func (s *Server) Do(req Request) Response {
	switch req.Op {
	case OpPing:
		return Response{OK: true, Op: OpPing}
	case OpPause:
		s.paused.Store(true)
		return Response{OK: true, Op: OpPause}
	case OpResume:
		s.paused.Store(false)
		s.draining.Store(false)
		return s.runQueued(OpResume)
	case OpShutdown:
		s.shutdownOnce.Do(func() { close(s.shutdownCh) })
		return Response{OK: true, Op: OpShutdown}
	case OpDrain:
		s.draining.Store(true)
		s.paused.Store(false)
		return s.runQueued(OpDrain)
	case OpDump:
		dump, err := s.dumpState()
		if err != nil {
			return errShutdown(OpDump)
		}
		return Response{OK: true, Op: OpDump, Dump: dump}
	case OpStats:
		if req.Tenant == "" {
			stats, err := s.StatsAll()
			if err != nil {
				return errShutdown(OpStats)
			}
			return Response{OK: true, Op: OpStats, Tenants: stats}
		}
	case OpSubmit, OpStatus, OpCancel:
	default:
		return errorResponse(req.Op, errWire(CodeUnknownOp, "unknown op %q", req.Op))
	}
	if req.Tenant == "" {
		return errorResponse(req.Op, errWire(CodeBadRequest, "%s needs a tenant", req.Op))
	}
	reply, ok := s.shardFor(req.Tenant).send(opMsg{kind: ctlRequest, req: req, nowNanos: s.now()})
	if !ok {
		return errShutdown(req.Op)
	}
	return reply.resp
}

// runQueued is the barrier behind drain and resume: every shard runs
// every tenant's queue empty, and the call returns once all shards have.
// Drain closes admission before it, so no task is in flight anywhere
// when a drain answers; resume reopens admission first.
func (s *Server) runQueued(op string) Response {
	replies := make([]chan shardReply, 0, len(s.shards))
	for _, sh := range s.shards {
		reply := make(chan shardReply, 1)
		if !sh.post(opMsg{kind: ctlRunQueued, reply: reply}) {
			return errShutdown(op)
		}
		replies = append(replies, reply)
	}
	for _, reply := range replies {
		select {
		case <-reply:
		case <-s.shards[0].quit:
			return errShutdown(op)
		}
	}
	return Response{OK: true, Op: op}
}

// StatsAll snapshots every tenant across all shards, sorted by name.
func (s *Server) StatsAll() ([]TenantStats, error) {
	dumps := make([][]TenantStats, 0, len(s.shards))
	for _, sh := range s.shards {
		reply, ok := sh.send(opMsg{kind: ctlStatsAll})
		if !ok {
			return nil, errors.New("controlplane: server is shutting down")
		}
		dumps = append(dumps, reply.stats)
	}
	return mergeSorted(dumps, func(a, b TenantStats) bool { return a.Tenant < b.Tenant }), nil
}

// DumpTenants snapshots every tenant's full state, sorted by name.
func (s *Server) DumpTenants() ([]TenantDump, error) {
	dumps := make([][]TenantDump, 0, len(s.shards))
	for _, sh := range s.shards {
		reply, ok := sh.send(opMsg{kind: ctlDumpAll})
		if !ok {
			return nil, errors.New("controlplane: server is shutting down")
		}
		dumps = append(dumps, reply.dumps)
	}
	return mergeSorted(dumps, func(a, b TenantDump) bool { return a.Stats.Tenant < b.Stats.Tenant }), nil
}

// mergeSorted k-way merges per-shard slices that are already sorted.
func mergeSorted[T any](parts [][]T, less func(a, b T) bool) []T {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]T, 0, total)
	for len(parts) > 0 {
		best := -1
		for i, p := range parts {
			if len(p) == 0 {
				continue
			}
			if best < 0 || less(p[0], parts[best][0]) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		out = append(out, parts[best][0])
		parts[best] = parts[best][1:]
	}
	return out
}

// ShutdownRequested is closed when a wire client sends OpShutdown; the
// process owner decides whether to honour it (cmd/rmsd does).
func (s *Server) ShutdownRequested() <-chan struct{} { return s.shutdownCh }

// Serve accepts connections on ln until Shutdown. It blocks; run it in
// its own goroutine when serving multiple listeners.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		_ = ln.Close()
		return errors.New("controlplane: server is shut down")
	}
	s.listeners = append(s.listeners, ln)
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.closed.Load() {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			_ = conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handleConn(conn)
	}
}

// handleConn runs one connection's request/response loop.
func (s *Server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		_ = conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	enc := json.NewEncoder(conn)
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 4096), MaxRequestBytes+2)
	// Every line is decoded into one request and answered from one
	// response: decodeRequest zeroes req first, and resp is encoded
	// through its pointer, so no line makes either anew.
	var req Request
	resp := new(Response)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if err := decodeRequest(line, MaxRequestBytes, &req); err != nil {
			*resp = errorResponse(req.Op, err)
		} else {
			*resp = s.Do(req)
		}
		err := enc.Encode(resp)
		*resp = Response{} // an idle connection holds no stats roster or dump
		if err != nil {
			return
		}
	}
	// A line beyond the size cap kills the scanner; tell the client why
	// before hanging up.
	if errors.Is(sc.Err(), bufio.ErrTooLong) {
		_ = enc.Encode(errorResponse("", errWire(CodeOversized, "request line exceeds the %d-byte cap", MaxRequestBytes)))
	}
}

// Shutdown stops accepting work, closes listeners and connections, stops
// every shard, and joins all goroutines. Idempotent.
func (s *Server) Shutdown() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	s.mu.Lock()
	for _, ln := range s.listeners {
		_ = ln.Close()
	}
	// Close in place: net.Conn.Close is concurrency-safe and does not
	// touch s.mu, and order is immaterial for teardown.
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.mu.Unlock()
	for _, sh := range s.shards {
		close(sh.quit)
	}
	s.wg.Wait()
}
