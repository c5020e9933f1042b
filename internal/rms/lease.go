package rms

import (
	"fmt"

	"repro/internal/capability"
	"repro/internal/fabric"
	"repro/internal/hdl"
	"repro/internal/pe"
	"repro/internal/sim"
	"repro/internal/task"
)

// Lease binds a task to a processing element until released. Creating a
// lease performs whatever the scenario demands: acquiring a GPP core,
// reusing a resident configuration, or reconfiguring fabric (whose delay
// the lease reports so the simulator can charge it).
type Lease struct {
	Cand   Candidate
	Region *fabric.Region
	// Estimator predicts task execution time on the leased element.
	Estimator pe.Estimator
	// ReconfigDelay is the configuration-port time spent to set the
	// element up (zero on reuse or GPPs).
	ReconfigDelay sim.Time
	// BitstreamMB is the configuration image size shipped to the node when
	// a reconfiguration happened (zero on reuse or GPPs).
	BitstreamMB float64
	// CompactionDelay is configuration-port time spent defragmenting the
	// fabric (rewriting displaced idle regions) to make the placement fit.
	CompactionDelay sim.Time
	// CompactionMoves counts regions rewritten by that defragmentation.
	CompactionMoves int
	// SynthesisSeconds is CAD tool time consumed (first synthesis of a
	// user-defined design per device; zero afterwards thanks to caching).
	SynthesisSeconds float64
	released         bool
}

// Release returns the leased capacity. Fabric configurations stay resident
// so later tasks can reuse them without reconfiguration.
func (l *Lease) Release() error {
	if l.released {
		return fmt.Errorf("rms: lease already released")
	}
	l.released = true
	if l.Region != nil {
		return l.Cand.Elem.Fabric.ReleaseRegion(l.Region)
	}
	switch {
	case l.Cand.Elem.GPP != nil:
		return l.Cand.Elem.ReleaseCore()
	case l.Cand.Elem.GPU != nil:
		return l.Cand.Elem.ReleaseGPU()
	}
	return fmt.Errorf("rms: lease over unknown element kind")
}

// userBitstreamEstimator times device-specific hardware tasks from the
// task's own declared hardware speedup (Work.HWSpeedup): the user
// characterized their bitstream, the provider has no model of it. The
// parallel fraction rides the user's hardware at HWSpeedup over the
// 1000-MIPS reference; a missing speedup means reference speed.
type userBitstreamEstimator struct{}

// EstimateSeconds implements pe.Estimator.
func (userBitstreamEstimator) EstimateSeconds(w pe.Work) (float64, error) {
	if err := w.Validate(); err != nil {
		return 0, err
	}
	speedup := w.HWSpeedup
	if speedup < 1 {
		speedup = 1
	}
	serial := w.MInstructions * (1 - w.ParallelFraction) / pe.ReferenceMIPS
	parallel := w.MInstructions * w.ParallelFraction / (pe.ReferenceMIPS * speedup)
	return serial + parallel, nil
}

// Kind implements pe.Estimator.
func (userBitstreamEstimator) Kind() capability.Kind { return capability.KindFPGA }

// CostEstimate is a read-only prediction of what running a task on a
// candidate would cost, used by scheduling strategies to compare options
// before committing.
type CostEstimate struct {
	// ExecSeconds is the predicted execution time.
	ExecSeconds float64
	// ReconfigDelay is the configuration-port time (zero on reuse/GPPs).
	ReconfigDelay sim.Time
	// BitstreamMB is the configuration image size that must travel over
	// the network when reconfiguration is needed.
	BitstreamMB float64
	// SynthesisSeconds is the CAD time a first-time synthesis would cost.
	SynthesisSeconds float64
}

// Estimate predicts the cost of placing work w with requirements req on
// candidate c without mutating any node state.
func (m *Matchmaker) Estimate(c Candidate, req task.ExecReq, w pe.Work) (CostEstimate, error) {
	var out CostEstimate
	switch {
	case c.Elem.GPP != nil:
		exec, err := c.Elem.GPP.EstimateSeconds(w)
		if err != nil {
			return out, err
		}
		out.ExecSeconds = exec
		return out, nil
	case c.Elem.GPU != nil:
		exec, err := c.Elem.GPU.EstimateSeconds(w)
		if err != nil {
			return out, err
		}
		out.ExecSeconds = exec
		return out, nil
	case c.Elem.Fabric == nil:
		return out, fmt.Errorf("rms: candidate element %s has no backing model", c.Elem.ID)
	}

	f := c.Elem.Fabric
	dev := f.Device()
	var est pe.Estimator
	var bsID string
	var bsBytes int64
	switch {
	case c.Core != nil:
		cfg := c.Core.Config()
		bsID = m.bitstreamID(c.Core.Design(), dev.FPGACaps.Device, dev.PartialRecon)
		if dev.PartialRecon {
			bsBytes = fabric.PartialSizeBytes(cfg.Slices())
		} else {
			bsBytes = dev.BitstreamBytes
		}
		est = c.Core
	case req.Scenario == pe.UserDefinedHW:
		if m.tc == nil {
			return out, fmt.Errorf("rms: provider has no CAD toolchain")
		}
		key := m.bitstreamID(req.Design.Name, dev.FPGACaps.Device, dev.PartialRecon)
		m.synthMu.RLock()
		res, cached := m.synthCache[key]
		m.synthMu.RUnlock()
		if !cached {
			var err error
			res, err = m.tc.Synthesize(req.Design, dev, dev.PartialRecon)
			if err != nil {
				return out, err
			}
			out.SynthesisSeconds = res.ToolSeconds
		}
		bsID = res.Bitstream.ID
		bsBytes = res.Bitstream.SizeBytes
		est = res.Accelerate(req.Design)
	case req.Scenario == pe.DeviceSpecificHW:
		bsID = req.Bitstream.ID
		bsBytes = req.Bitstream.SizeBytes
		est = userBitstreamEstimator{}
	default:
		return out, fmt.Errorf("rms: scenario %v cannot run on fabric without a core or design", req.Scenario)
	}

	exec, err := est.EstimateSeconds(w)
	if err != nil {
		return out, err
	}
	out.ExecSeconds = exec
	if f.FindLoaded(bsID) == nil {
		out.ReconfigDelay = fabric.ConfigDelay(bsBytes, dev.ReconfigMBps)
		out.BitstreamMB = float64(bsBytes) / 1e6
	}
	return out, nil
}

// Allocate turns a candidate into a live lease. It may evict idle resident
// configurations to make room and reports reconfiguration/synthesis costs.
func (m *Matchmaker) Allocate(c Candidate, req task.ExecReq) (*Lease, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	switch {
	case c.Elem.GPP != nil:
		if err := c.Elem.AcquireCore(); err != nil {
			return nil, err
		}
		return &Lease{Cand: c, Estimator: c.Elem.GPP}, nil
	case c.Elem.GPU != nil:
		if err := c.Elem.AcquireGPU(); err != nil {
			return nil, err
		}
		return &Lease{Cand: c, Estimator: c.Elem.GPU}, nil
	case c.Elem.Fabric != nil:
		return m.allocateFabric(c, req)
	}
	return nil, fmt.Errorf("rms: candidate element %s has no backing model", c.Elem.ID)
}

func (m *Matchmaker) allocateFabric(c Candidate, req task.ExecReq) (*Lease, error) {
	f := c.Elem.Fabric
	dev := f.Device()
	lease := &Lease{Cand: c}

	var bs *fabric.Bitstream
	switch {
	case c.Core != nil:
		cfg := c.Core.Config()
		id := m.bitstreamID(c.Core.Design(), dev.FPGACaps.Device, dev.PartialRecon)
		if dev.PartialRecon {
			var err error
			bs, err = c.Core.Bitstream(id, dev)
			if err != nil {
				return nil, err
			}
		} else {
			bs = fabric.FullBitstream(id, "softcore-"+cfg.Caps.ISA, dev, cfg.Slices())
		}
		lease.Estimator = c.Core
	case req.Scenario == pe.UserDefinedHW:
		if m.tc == nil {
			return nil, fmt.Errorf("rms: provider has no CAD toolchain for user-defined hardware")
		}
		res, synthSeconds, err := m.synthesize(req.Design, dev)
		if err != nil {
			return nil, err
		}
		bs = res.Bitstream
		lease.SynthesisSeconds = synthSeconds
		lease.Estimator = res.Accelerate(req.Design)
	case req.Scenario == pe.DeviceSpecificHW:
		bs = req.Bitstream
		lease.Estimator = userBitstreamEstimator{}
	default:
		return nil, fmt.Errorf("rms: scenario %v cannot run on fabric without a core or design", req.Scenario)
	}

	// Reuse a resident idle configuration when possible.
	if r := f.FindLoaded(bs.ID); r != nil {
		if err := f.Acquire(r); err != nil {
			return nil, err
		}
		lease.Region = r
		return lease, nil
	}

	region, delay, compaction, err := m.configure(f, bs)
	if err != nil {
		return nil, err
	}
	if err := f.Acquire(region); err != nil {
		return nil, err
	}
	lease.Region = region
	lease.ReconfigDelay = delay
	lease.CompactionDelay = compaction.delay
	lease.CompactionMoves = compaction.moves
	lease.BitstreamMB = float64(bs.SizeBytes) / 1e6
	return lease, nil
}

// PrewarmSynthesis synthesizes a design for a device into the provider's
// bitstream library ahead of time, so later allocations pay no CAD time.
// This models the paper's OpenCores scenario, where the provider keeps
// ready bitstreams for popular library IPs.
func (m *Matchmaker) PrewarmSynthesis(d *hdl.Design, dev fabric.Device) error {
	if m.tc == nil {
		return fmt.Errorf("rms: provider has no CAD toolchain")
	}
	if !m.tc.Supports(dev.Family) {
		return fmt.Errorf("rms: toolchain does not support %s", dev.Family)
	}
	_, _, err := m.synthesize(d, dev)
	return err
}

// synthesize runs (or replays from cache) a synthesis for design×device.
func (m *Matchmaker) synthesize(d *hdl.Design, dev fabric.Device) (*hdl.SynthesisResult, float64, error) {
	key := m.bitstreamID(d.Name, dev.FPGACaps.Device, dev.PartialRecon)
	m.synthMu.RLock()
	res, ok := m.synthCache[key]
	m.synthMu.RUnlock()
	if ok {
		return res, 0, nil
	}
	res, err := m.tc.Synthesize(d, dev, dev.PartialRecon)
	if err != nil {
		return nil, 0, err
	}
	m.synthMu.Lock()
	defer m.synthMu.Unlock()
	if m.synthCache == nil { // zero-value Matchmaker
		m.synthCache = make(map[string]*hdl.SynthesisResult)
	}
	// A concurrent caller may have synthesized the same pair while we were;
	// keep the first result so every reader sees one canonical bitstream,
	// and report zero tool time for the duplicate (the cost was already
	// charged once).
	if prior, ok := m.synthCache[key]; ok {
		return prior, 0, nil
	}
	m.synthCache[key] = res
	return res, res.ToolSeconds, nil
}

// compactionCost reports defragmentation work done during configure.
type compactionCost struct {
	delay sim.Time
	moves int
}

// configure loads a bitstream. When a partial placement fails it first
// compacts the fabric (preserving loaded configurations), then falls back
// to evicting idle configurations oldest-first.
func (m *Matchmaker) configure(f *fabric.Fabric, bs *fabric.Bitstream) (*fabric.Region, sim.Time, compactionCost, error) {
	var compaction compactionCost
	if !bs.Partial {
		// Full reconfiguration wipes everything; it fails while any
		// region is busy, which is the correct semantics.
		region, delay, err := f.ConfigureFull(bs)
		return region, delay, compaction, err
	}
	compacted := false
	for {
		region, delay, err := f.ConfigurePartial(bs)
		if err == nil {
			return region, delay, compaction, nil
		}
		// First resort: defragment, keeping configurations resident.
		if !compacted && !m.DisableCompaction {
			compacted = true
			moved, delay, cErr := f.Compact()
			if cErr == nil && moved > 0 {
				compaction.delay += delay
				compaction.moves += moved
				continue
			}
		}
		// Second resort: evict the oldest idle region.
		evicted := false
		for _, r := range f.Regions() {
			if !r.Busy {
				if evictErr := f.Evict(r); evictErr == nil {
					evicted = true
					break
				}
			}
		}
		if !evicted {
			return nil, 0, compaction, fmt.Errorf("rms: cannot place %d slices on %s: %w", bs.Slices, f.Device().FPGACaps.Device, err)
		}
	}
}
