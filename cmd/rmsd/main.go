// Command rmsd is the long-running multi-tenant RMS server: it exposes
// the control plane's line-delimited JSON wire API over TCP and/or a
// unix socket, with per-tenant admission quotas, RC3E service tiers, and
// a sharded deterministic dispatcher.
//
// Usage:
//
//	rmsd -listen 127.0.0.1:7433                # TCP
//	rmsd -unix /tmp/rmsd.sock                  # unix socket
//	rmsd -listen :7433 -shards 8 -faults       # faulty fabric, 8 shards
//	rmsd -dump-state                           # deterministic self-check
//	                                           # snapshot, then exit
//
// Observability: -timeline writes a gauge-series CSV, -chrome a Chrome
// trace (open in chrome://tracing), -events a raw event CSV; all are
// written on shutdown. A SIGINT/SIGTERM or a wire "shutdown" request
// drains nothing by itself — clients wanting a clean handoff send
// "drain" first, then "shutdown".
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/controlplane"
	"repro/internal/faults"
	"repro/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed command-line flags.
type options struct {
	listen     string
	unixSocket string
	shards     int
	seed       uint64
	withFaults bool
	sampleEach int
	quotaRate  float64
	quotaBurst float64
	maxQueue   int
	dumpState  bool
	timeline   string
	chrome     string
	events     string
}

func parseFlags(args []string, stderr io.Writer) (*options, error) {
	fs := flag.NewFlagSet("rmsd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	opt := &options{}
	fs.StringVar(&opt.listen, "listen", "127.0.0.1:7433", "TCP listen address (empty disables TCP)")
	fs.StringVar(&opt.unixSocket, "unix", "", "unix socket path (empty disables)")
	fs.IntVar(&opt.shards, "shards", controlplane.DefaultShards, "dispatcher shard count")
	fs.Uint64Var(&opt.seed, "seed", 1, "deterministic seed for tenant engines")
	fs.BoolVar(&opt.withFaults, "faults", false, "inject the default fault model into tenant slices")
	fs.IntVar(&opt.sampleEach, "sample", 0, "emit a per-tenant gauge sample every N completions (0 disables)")
	fs.Float64Var(&opt.quotaRate, "quota-rate", 0, "override per-tier admission rate (submissions/second, 0 keeps tier defaults)")
	fs.Float64Var(&opt.quotaBurst, "quota-burst", 0, "override per-tier admission burst (0 keeps tier defaults)")
	fs.IntVar(&opt.maxQueue, "max-queue", 0, "override per-tier queue bound (0 keeps tier defaults)")
	fs.BoolVar(&opt.dumpState, "dump-state", false, "run the built-in self-check workload, print the state snapshot, exit")
	fs.StringVar(&opt.timeline, "timeline", "", "write the gauge-series CSV here on shutdown")
	fs.StringVar(&opt.chrome, "chrome", "", "write a Chrome trace here on shutdown")
	fs.StringVar(&opt.events, "events", "", "stream the raw event CSV here")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments: %q", fs.Args())
	}
	return opt, nil
}

func (opt *options) config() (controlplane.Config, *sinks, error) {
	cfg := controlplane.DefaultConfig()
	cfg.Shards = opt.shards
	cfg.Seed = opt.seed
	cfg.RateOverride = opt.quotaRate
	cfg.BurstOverride = opt.quotaBurst
	cfg.MaxQueueOverride = opt.maxQueue
	cfg.SampleEvery = opt.sampleEach
	if !opt.dumpState {
		// The self-check snapshot must be deterministic, so the wall
		// clock (and with it quota refill) stays out of -dump-state runs.
		cfg.NowNanos = func() int64 { return time.Now().UnixNano() }
	}
	if opt.withFaults {
		spec := faults.Default()
		spec.HorizonSeconds = 1e6
		cfg.Faults = spec
	}
	sk, err := newSinks(opt)
	if err != nil {
		return cfg, nil, err
	}
	cfg.Sink = sk.sink
	return cfg, sk, nil
}

// sinks bundles the optional trace outputs and their flush-on-exit work.
type sinks struct {
	sink     obs.TraceSink
	timeline *obs.Timeline
	files    []*os.File
	opt      *options
}

func newSinks(opt *options) (*sinks, error) {
	sk := &sinks{opt: opt}
	var parts []obs.TraceSink
	if opt.timeline != "" || opt.sampleEach > 0 {
		sk.timeline = obs.NewTimeline()
		parts = append(parts, sk.timeline)
	}
	if opt.chrome != "" {
		//reconlint:sanitized the trace path comes from the operator's own command line, not from tenant wire input
		f, err := os.Create(opt.chrome)
		if err != nil {
			return nil, err
		}
		sk.files = append(sk.files, f)
		parts = append(parts, obs.NewChrome(f))
	}
	if opt.events != "" {
		//reconlint:sanitized the event-CSV path comes from the operator's own command line, not from tenant wire input
		f, err := os.Create(opt.events)
		if err != nil {
			return nil, err
		}
		sk.files = append(sk.files, f)
		parts = append(parts, obs.NewCSV(f))
	}
	sk.sink = obs.Multi(parts...)
	return sk, nil
}

// close flushes every sink and writes the timeline CSV.
func (sk *sinks) close(stderr io.Writer) {
	if sk.sink != nil {
		if err := sk.sink.Flush(); err != nil {
			fmt.Fprintln(stderr, "rmsd: flushing traces:", err)
		}
		if err := sk.sink.Close(); err != nil {
			fmt.Fprintln(stderr, "rmsd: closing traces:", err)
		}
	}
	if sk.timeline != nil && sk.opt.timeline != "" {
		//reconlint:sanitized the timeline path comes from the operator's own command line, not from tenant wire input
		f, err := os.Create(sk.opt.timeline)
		if err != nil {
			fmt.Fprintln(stderr, "rmsd:", err)
		} else {
			if err := sk.timeline.WriteCSV(f); err != nil {
				fmt.Fprintln(stderr, "rmsd: writing timeline:", err)
			}
			sk.files = append(sk.files, f)
		}
	}
	for _, f := range sk.files {
		if err := f.Close(); err != nil {
			fmt.Fprintln(stderr, "rmsd: closing trace file:", err)
		}
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	opt, err := parseFlags(args, stderr)
	if err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		fmt.Fprintln(stderr, "rmsd:", err)
		return 2
	}
	cfg, sk, err := opt.config()
	if err != nil {
		fmt.Fprintln(stderr, "rmsd:", err)
		return 1
	}
	defer sk.close(stderr)

	srv, err := controlplane.New(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "rmsd:", err)
		return 1
	}
	defer srv.Shutdown()

	if opt.dumpState {
		if err := selfCheck(srv); err != nil {
			fmt.Fprintln(stderr, "rmsd:", err)
			return 1
		}
		dump, err := srv.DumpState()
		if err != nil {
			fmt.Fprintln(stderr, "rmsd:", err)
			return 1
		}
		fmt.Fprint(stdout, dump)
		return 0
	}

	var wg sync.WaitGroup
	serveOne := func(network, addr string) error {
		ln, err := net.Listen(network, addr)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "rmsd: listening on %s %s (shards=%d seed=%d)\n", network, ln.Addr(), cfg.Shards, cfg.Seed)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := srv.Serve(ln); err != nil {
				fmt.Fprintln(stderr, "rmsd: serve:", err)
			}
		}()
		return nil
	}
	listening := false
	if opt.listen != "" {
		if err := serveOne("tcp", opt.listen); err != nil {
			fmt.Fprintln(stderr, "rmsd:", err)
			return 1
		}
		listening = true
	}
	if opt.unixSocket != "" {
		if err := serveOne("unix", opt.unixSocket); err != nil {
			fmt.Fprintln(stderr, "rmsd:", err)
			return 1
		}
		listening = true
		defer func() {
			//reconlint:sanitized the socket path comes from the operator's own command line, not from tenant wire input
			if err := os.Remove(opt.unixSocket); err != nil && !os.IsNotExist(err) {
				fmt.Fprintln(stderr, "rmsd:", err)
			}
		}()
	}
	if !listening {
		fmt.Fprintln(stderr, "rmsd: nothing to listen on (set -listen and/or -unix)")
		return 2
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case s := <-sig:
		fmt.Fprintf(stdout, "rmsd: %v, shutting down\n", s)
	case <-srv.ShutdownRequested():
		fmt.Fprintln(stdout, "rmsd: shutdown requested over the wire")
	}
	srv.Shutdown()
	wg.Wait()
	fmt.Fprintln(stdout, "rmsd: bye")
	return 0
}

// selfCheck runs the deterministic built-in workload behind -dump-state:
// three tenants across the three tiers, a handful of tasks spanning the
// software/softcore/userhw scenarios, one cancel, then a drain. Its
// snapshot is pinned by a golden test.
func selfCheck(srv *controlplane.Server) error {
	reqs := []controlplane.Request{
		{Op: controlplane.OpPause},
		{Op: controlplane.OpSubmit, Tenant: "acme", Tier: "full",
			Task: &controlplane.TaskSpec{ID: "a1", WorkMI: 4000, Parallel: 0.5}},
		{Op: controlplane.OpSubmit, Tenant: "acme", Tier: "full",
			Task: &controlplane.TaskSpec{ID: "a2", WorkMI: 9000, Scenario: "userhw", Design: "aes128", Parallel: 0.9}},
		{Op: controlplane.OpSubmit, Tenant: "birch", Tier: "virtualized",
			Task: &controlplane.TaskSpec{ID: "b1", WorkMI: 2500, Scenario: "softcore", Parallel: 0.7}},
		{Op: controlplane.OpSubmit, Tenant: "birch", Tier: "virtualized",
			Task: &controlplane.TaskSpec{ID: "b2", WorkMI: 500, DataMB: 16}},
		{Op: controlplane.OpSubmit, Tenant: "cedar", Tier: "background",
			Task: &controlplane.TaskSpec{ID: "c1", WorkMI: 12000, Parallel: 0.3}},
		{Op: controlplane.OpSubmit, Tenant: "cedar", Tier: "background",
			Task: &controlplane.TaskSpec{ID: "c2", WorkMI: 800}},
		{Op: controlplane.OpCancel, Tenant: "cedar", TaskID: "c2"},
		{Op: controlplane.OpDrain},
	}
	for _, req := range reqs {
		if resp := srv.Do(req); !resp.OK {
			return fmt.Errorf("self-check %s: %q %q", req.Op, resp.Code, resp.Error)
		}
	}
	return nil
}
