// Package faults generates deterministic fault timelines for the grid
// simulator: node crashes and recoveries, SEU-style transient corruption
// of RPE configurations, and network link degradation or partitions.
//
// A timeline is a pure function of (RNG, Spec, node list), generated as
// it is read (Cursor): the injector
// never reads wall-clock time or global randomness, so the same seed
// replays the same fault timeline event for event. The grid engine owns
// the *effects* of each event (which execution aborts, which lease
// expires); this package only decides *what happens when*, carrying
// enough random bits in each Event (Selector) for the engine to resolve
// victims deterministically without consulting another RNG.
package faults

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/sim"
)

// ScheduleStream is the sim.RNG split stream reserved for fault-schedule
// derivation. Scenario runs split it off the workload seed so the fault
// timeline is independent of — but still fully determined by — the seed
// that generates the task stream.
const ScheduleStream uint64 = 0xFA17_0003

// DefaultLeaseTTL is the lease renewal interval used when a Spec enables
// faults but leaves LeaseTTLSeconds zero: failure detection latency is at
// most one TTL after a crash or partition.
const DefaultLeaseTTL = 5.0

// Kind classifies one scheduled fault event.
type Kind int

// Fault event kinds. Crash/Recover and Degrade/Restore come in pairs
// sharing the pairing sequence number Event.Seq.
const (
	KindNodeCrash Kind = iota
	KindNodeRecover
	KindSEU
	KindLinkDegrade
	KindLinkRestore
)

// String names the kind for traces and event labels.
func (k Kind) String() string {
	switch k {
	case KindNodeCrash:
		return "node-crash"
	case KindNodeRecover:
		return "node-recover"
	case KindSEU:
		return "seu"
	case KindLinkDegrade:
		return "link-degrade"
	case KindLinkRestore:
		return "link-restore"
	}
	return fmt.Sprintf("faults.Kind(%d)", int(k))
}

// Event is one scheduled fault. Events are self-contained: the engine
// applies them without any further randomness.
type Event struct {
	// Time is the virtual time the fault strikes.
	Time sim.Time
	// Kind says what happens.
	Kind Kind
	// Node is the victim node ID.
	Node string
	// Seq pairs a crash with its recovery (and a degrade with its
	// restore): a recovery only applies if the node is still down from
	// the crash with the same Seq, so overlapping fault processes cannot
	// resurrect a node early.
	Seq uint64
	// Selector carries random bits for victim resolution below node
	// granularity (which RPE, which region) — drawn at schedule time so
	// the engine stays RNG-free.
	Selector uint64
	// Factor divides link bandwidth (and multiplies latency) for
	// KindLinkDegrade events.
	Factor float64
	// Partition marks a KindLinkDegrade event as a full partition: the
	// node is unreachable rather than slow.
	Partition bool
}

// RetryPolicy bounds task re-execution after a fault-induced abort.
type RetryPolicy struct {
	// MaxRetries caps re-executions per task; a task whose retry count
	// would exceed it is declared lost. Zero means unlimited.
	MaxRetries int
	// BackoffSeconds is the delay before the first retry; each further
	// retry doubles it (capped). Zero retries immediately.
	BackoffSeconds float64
	// BackoffCapSeconds caps the exponential growth; zero means uncapped.
	BackoffCapSeconds float64
}

// Delay returns the backoff before retry attempt n (n = 1 is the first
// retry): BackoffSeconds·2^(n−1), capped at BackoffCapSeconds.
func (p RetryPolicy) Delay(attempt int) float64 {
	if p.BackoffSeconds <= 0 || attempt <= 0 {
		return 0
	}
	d := p.BackoffSeconds
	for i := 1; i < attempt; i++ {
		d *= 2
		if p.BackoffCapSeconds > 0 && d >= p.BackoffCapSeconds {
			return p.BackoffCapSeconds
		}
	}
	if p.BackoffCapSeconds > 0 && d > p.BackoffCapSeconds {
		return p.BackoffCapSeconds
	}
	return d
}

// Spec parameterizes the fault processes. Rates are Poisson intensities
// in events per simulated second over the whole grid; the zero value
// injects nothing.
type Spec struct {
	// CrashRate is the node crash intensity (crashes/second across the
	// grid); MeanOutageSeconds the mean crash→recovery outage.
	CrashRate         float64
	MeanOutageSeconds float64
	// SEURate is the intensity of single-event upsets corrupting one
	// loaded RPE configuration (forcing reconfiguration, aborting the
	// task using it).
	SEURate float64
	// LinkFaultRate is the intensity of link faults;
	// MeanLinkFaultSeconds their mean duration; LinkDegradeFactor the
	// bandwidth divisor while degraded; PartitionShare the fraction of
	// link faults that are full partitions instead of slowdowns.
	LinkFaultRate        float64
	MeanLinkFaultSeconds float64
	LinkDegradeFactor    float64
	PartitionShare       float64
	// HorizonSeconds bounds schedule generation: no fault *starts* after
	// it (recoveries may land past it). Required when any rate is
	// positive; RunScenario derives one from the workload when left zero.
	HorizonSeconds float64
	// LeaseTTLSeconds is the lease renewal interval for failure
	// detection; zero means DefaultLeaseTTL.
	LeaseTTLSeconds float64
	// Retry bounds task re-execution after fault-induced aborts.
	Retry RetryPolicy
}

// Default returns a moderately hostile spec: a crash roughly every 50
// simulated seconds grid-wide with 30 s outages, occasional SEUs and
// link faults, and a capped-exponential retry policy.
func Default() Spec {
	return Spec{
		CrashRate:            0.02,
		MeanOutageSeconds:    30,
		SEURate:              0.01,
		LinkFaultRate:        0.01,
		MeanLinkFaultSeconds: 60,
		LinkDegradeFactor:    10,
		PartitionShare:       0.25,
		LeaseTTLSeconds:      DefaultLeaseTTL,
		Retry: RetryPolicy{
			MaxRetries:        8,
			BackoffSeconds:    0.5,
			BackoffCapSeconds: 30,
		},
	}
}

// Enabled reports whether the spec injects any faults at all.
func (s Spec) Enabled() bool {
	return s.CrashRate > 0 || s.SEURate > 0 || s.LinkFaultRate > 0
}

// Validate reports impossible specs.
func (s Spec) Validate() error {
	if s.CrashRate < 0 || s.SEURate < 0 || s.LinkFaultRate < 0 {
		return fmt.Errorf("faults: negative fault rate")
	}
	if s.CrashRate > 0 && s.MeanOutageSeconds <= 0 {
		return fmt.Errorf("faults: crash rate without a positive mean outage")
	}
	if s.LinkFaultRate > 0 {
		if s.MeanLinkFaultSeconds <= 0 {
			return fmt.Errorf("faults: link fault rate without a positive mean duration")
		}
		if s.LinkDegradeFactor < 1 {
			return fmt.Errorf("faults: link degrade factor %g < 1", s.LinkDegradeFactor)
		}
		if s.PartitionShare < 0 || s.PartitionShare > 1 {
			return fmt.Errorf("faults: partition share %g outside [0,1]", s.PartitionShare)
		}
	}
	if s.Enabled() && s.HorizonSeconds <= 0 {
		return fmt.Errorf("faults: enabled spec needs a positive horizon")
	}
	if s.LeaseTTLSeconds < 0 {
		return fmt.Errorf("faults: negative lease TTL")
	}
	if s.Retry.MaxRetries < 0 || s.Retry.BackoffSeconds < 0 || s.Retry.BackoffCapSeconds < 0 {
		return fmt.Errorf("faults: negative retry policy field")
	}
	return nil
}

// Cursor generates the fault timeline of a run as it is read: three
// independent Poisson processes (crashes, SEUs, link faults), each on its
// own split of the RNG, merged into one time-ordered stream. Its events
// are a pure function of NewCursor's arguments, which is what makes fault
// runs replayable and sweep replicas worker-count independent.
//
// The order is (Time, Seq, Kind). Seq is assigned process by process,
// crashes first, then SEUs, then link faults, each in time order, so it
// breaks ties between processes; Kind puts a zero-length outage's crash
// before its recovery. A cursor holds each process's RNG and next start,
// and the second halves (recoveries and restores) whose starts it has
// yielded: its memory is bounded by how many outages overlap, not by the
// horizon.
type Cursor struct {
	spec  Spec
	nodes []string
	procs [3]process
	// ends holds the pending second halves, latest first, so the earliest
	// is the last.
	ends []Event
}

// process is one fault process: its RNG, its rate, and its next start,
// drawn in full with the second half it pairs with. live is false once
// the next start would fall past the horizon.
type process struct {
	rng        sim.RNG
	rate       float64
	t          sim.Time
	seq        uint64
	live       bool
	start, end Event
}

// NewCursor returns a cursor over the fault timeline that rng, spec and
// nodeIDs determine. A disabled spec or an empty node list yields no
// event. The cursor reads nodeIDs as it goes: the caller must not modify
// it while the cursor is in use.
func NewCursor(rng *sim.RNG, spec Spec, nodeIDs []string) (*Cursor, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	c := &Cursor{spec: spec, nodes: nodeIDs}
	if !spec.Enabled() || len(nodeIDs) == 0 {
		return c, nil
	}
	// Seq numbers the starts process by process, so each process's first
	// Seq follows the start count of the processes before it. Counting
	// replays a process's draws on a copy of its RNG.
	var seq uint64
	for i, rate := range [3]float64{spec.CrashRate, spec.SEURate, spec.LinkFaultRate} {
		if rate <= 0 {
			continue
		}
		p := &c.procs[i]
		p.rng, p.rate, p.seq = *rng.Split(uint64(i + 1)), rate, seq+1
		p.t = sim.Time(p.rng.ExpFloat64() / rate)
		c.draw(i, p)
		for q := *p; q.live; c.draw(i, &q) {
			seq++
		}
	}
	return c, nil
}

// draw draws the start at p.t as process i, in the order of the
// process's RNG draws: the victim, the start's own draws, then the gap
// to the next start. p is process i's state or a copy of it.
func (c *Cursor) draw(i int, p *process) {
	if p.live = float64(p.t) <= c.spec.HorizonSeconds; !p.live {
		return
	}
	r, t, seq := &p.rng, p.t, p.seq
	victim := c.nodes[r.Intn(len(c.nodes))]
	switch i {
	case 0:
		outage := sim.Time(r.ExpFloat64() * c.spec.MeanOutageSeconds)
		p.start = Event{Time: t, Kind: KindNodeCrash, Node: victim, Seq: seq}
		p.end = Event{Time: t + outage, Kind: KindNodeRecover, Node: victim, Seq: seq}
	case 1:
		p.start = Event{Time: t, Kind: KindSEU, Node: victim, Seq: seq, Selector: r.Uint64()}
	case 2:
		dur := sim.Time(r.ExpFloat64() * c.spec.MeanLinkFaultSeconds)
		part := r.Float64() < c.spec.PartitionShare
		p.start = Event{Time: t, Kind: KindLinkDegrade, Node: victim, Seq: seq, Factor: c.spec.LinkDegradeFactor, Partition: part}
		p.end = Event{Time: t + dur, Kind: KindLinkRestore, Node: victim, Seq: seq, Partition: part}
	}
	p.seq++
	p.t += sim.Time(r.ExpFloat64() / p.rate)
}

// Next returns the timeline's next event, and false once it has ended.
func (c *Cursor) Next() (Event, bool) {
	next := -1
	for i := range c.procs {
		if p := &c.procs[i]; p.live && (next < 0 || compare(&p.start, &c.procs[next].start) < 0) {
			next = i
		}
	}
	if n := len(c.ends); n > 0 && (next < 0 || compare(&c.ends[n-1], &c.procs[next].start) < 0) {
		ev := c.ends[n-1]
		c.ends = c.ends[:n-1]
		return ev, true
	}
	if next < 0 {
		return Event{}, false
	}
	p := &c.procs[next]
	ev := p.start
	if ev.Kind != KindSEU {
		// A second half sorts after its start, so it joins the pending
		// set before anything could need it.
		i, _ := slices.BinarySearchFunc(c.ends, &p.end, func(a Event, b *Event) int { return compare(b, &a) })
		c.ends = slices.Insert(c.ends, i, p.end)
	}
	c.draw(next, p)
	return ev, true
}

// compare orders events by (Time, Seq, Kind), the timeline's order.
func compare(a, b *Event) int {
	if c := cmp.Compare(a.Time, b.Time); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Seq, b.Seq); c != 0 {
		return c
	}
	return cmp.Compare(a.Kind, b.Kind)
}
