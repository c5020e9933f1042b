package sched

import (
	"math"

	"repro/internal/network"
	"repro/internal/pe"
	"repro/internal/rms"
	"repro/internal/task"
)

// Link reports the network link to a node, and false when the node
// cannot be reached. A nil Link reaches every node and charges no
// transfer.
type Link func(nodeID string) (network.Link, bool)

// to returns the link to a node. A nil Link's has no latency and
// unbounded bandwidth, so every transfer over it takes exactly 0 s.
func (link Link) to(nodeID string) (network.Link, bool) {
	if link == nil {
		return network.Link{BandwidthMBps: math.Inf(1)}, true
	}
	return link(nodeID)
}

// Placement is a lease Place made, with the timeline it charges.
type Placement struct {
	Lease rms.Lease
	// ExecSeconds is the pure execution time; TransferSeconds the input
	// data, and the bitstream when the lease reconfigured, over the link.
	ExecSeconds, TransferSeconds float64
	// SpanSeconds is transfer + synthesis + (reconfiguration +
	// compaction) + execution, summed in that order.
	SpanSeconds float64
}

// Place is the RMS's one placement step. It takes the candidates for
// req, skips every node link cannot reach, estimates work on the rest,
// drops an option whose estimate fails, prices transfer over the link
// and lets choose pick. When Allocate refuses the pick, it drops that
// option and chooses again among the rest, in their order. It returns
// false, leasing nothing, when there is no candidate, when choose
// declines (returns -1) or when every option was refused; choose never
// sees an empty slice. buf is the caller's scratch option slice, kept
// grown so a warm call allocates nothing; the lease holds its own copy of
// the candidate, so nothing aliases it.
//
// A nil choose is first fit, as a nil Link reaches every node: Place
// walks the candidates in order and leases the first that is reachable,
// estimates and allocates, and estimates nothing past it. That is what
// FirstFit.Choose picks, since an estimate commits nothing.
func Place(mm *rms.Matchmaker, req *task.ExecReq, work pe.Work, link Link, choose func([]Option) int, buf *[]Option) (Placement, bool) {
	cands, err := mm.Candidates(*req)
	if err != nil || len(cands) == 0 {
		return Placement{}, false
	}
	opts := (*buf)[:0]
	for _, c := range cands {
		l, ok := link.to(c.Node.ID)
		if !ok {
			continue
		}
		est, err := mm.Estimate(c, *req, work)
		if err != nil {
			continue
		}
		if choose == nil {
			if p, ok := lease(mm, c, req, work, link, est.ExecSeconds); ok {
				return p, true
			}
			continue
		}
		opts = append(opts, Option{
			Cand:             c,
			ExecSeconds:      est.ExecSeconds,
			ReconfigSeconds:  float64(est.ReconfigDelay),
			TransferSeconds:  l.TransferSeconds(work.DataMB + est.BitstreamMB),
			SynthesisSeconds: est.SynthesisSeconds,
		})
	}
	// Keep the grown array for the next call: dropping options below
	// never grows it.
	*buf = opts[:0]
	for len(opts) > 0 {
		i := choose(opts)
		if i < 0 {
			break
		}
		if p, ok := lease(mm, opts[i].Cand, req, work, link, opts[i].ExecSeconds); ok {
			return p, true
		}
		// The element became unusable (area busy): drop the option.
		opts = append(opts[:i], opts[i+1:]...)
	}
	return Placement{}, false
}

// lease allocates candidate c for req and prices the placement's
// timeline, exec being its estimated execution time; false when Allocate
// refuses c.
func lease(mm *rms.Matchmaker, c rms.Candidate, req *task.ExecReq, work pe.Work, link Link, exec float64) (Placement, bool) {
	l, err := mm.Allocate(c, *req)
	if err != nil {
		return Placement{}, false
	}
	// The bitstream crosses the link only if this lease reconfigured.
	lk, _ := link.to(l.Cand.Node.ID)
	p := Placement{Lease: l, ExecSeconds: exec, TransferSeconds: lk.TransferSeconds(work.DataMB + l.BitstreamMB)}
	p.SpanSeconds = p.TransferSeconds + l.SynthesisSeconds + float64(l.ReconfigDelay+l.CompactionDelay) + p.ExecSeconds
	return p, true
}
