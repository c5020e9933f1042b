package rms

import (
	"errors"
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

	bs, est, fresh, err := m.resolve(c, req)
	if err != nil {
		return out, err
	}
	if fresh != nil {
		out.SynthesisSeconds = fresh.ToolSeconds
	}
	exec, err := est.EstimateSeconds(w)
	if err != nil {
		return out, err
	}
	out.ExecSeconds = exec
	if f := c.Elem.Fabric; f.FindLoaded(bs.ID) == nil {
		out.ReconfigDelay = fabric.ConfigDelay(bs.SizeBytes, f.Device().ReconfigMBps)
		out.BitstreamMB = float64(bs.SizeBytes) / 1e6
	}
	return out, nil
}

// Allocate turns a candidate into a live lease. It may evict idle resident
// configurations to make room and reports reconfiguration/synthesis costs.
// When no room can be made it returns the fabric's placement error, such
// as fabric.ErrNoRoom or fabric.ErrBusy.
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

// allocateFabric places c's configuration, reusing a resident idle copy
// when there is one. A failed placement builds nothing: a first synthesis
// is committed, and its tool time charged, only once the region is held.
func (m *Matchmaker) allocateFabric(c Candidate, req task.ExecReq) (*Lease, error) {
	bs, est, fresh, err := m.resolve(c, req)
	if err != nil {
		return nil, err
	}
	f := c.Elem.Fabric
	l := Lease{Cand: c, Region: f.FindLoaded(bs.ID), Estimator: est}
	if l.Region == nil {
		var compaction compactionCost
		if l.Region, l.ReconfigDelay, compaction, err = m.configure(f, bs); err != nil {
			return nil, err
		}
		l.BitstreamMB = float64(bs.SizeBytes) / 1e6
		l.CompactionDelay, l.CompactionMoves = compaction.delay, compaction.moves
	}
	if err := f.Acquire(l.Region); err != nil {
		return nil, err
	}
	if fresh != nil {
		l.SynthesisSeconds = m.commit(fresh)
	}
	// Only the placed lease reaches the heap: a failed placement, the
	// common case on a loaded grid, allocates nothing.
	lease := l
	return &lease, nil
}

// resolve decides a fabric candidate's configuration for req: the
// bitstream it loads, the estimator that times work on it and, when req's
// design was never synthesized for the device, that first synthesis. The
// caller charges the synthesis's tool time; only an Allocate that places
// the configuration commits it.
func (m *Matchmaker) resolve(c Candidate, req task.ExecReq) (*fabric.Bitstream, pe.Estimator, *hdl.SynthesisResult, error) {
	dev := c.Elem.Fabric.Device()
	switch {
	case c.Core != nil:
		bs, err := c.Core.Bitstream(dev)
		return bs, c.Core, nil, err
	case req.Scenario == pe.UserDefinedHW:
		if m.tc == nil {
			return nil, nil, nil, errNoToolchain
		}
		if res := m.cachedSynthesis(req.Design.Name, dev); res != nil {
			return res.Bitstream, res.Accelerate(req.Design), nil, nil
		}
		res, err := m.tc.Synthesize(req.Design, dev, dev.PartialRecon)
		if err != nil {
			return nil, nil, nil, err
		}
		return res.Bitstream, res.Accelerate(req.Design), res, nil
	case req.Scenario == pe.DeviceSpecificHW:
		return req.Bitstream, userBitstreamEstimator{}, nil, nil
	}
	return nil, nil, nil, fmt.Errorf("rms: scenario %v cannot run on fabric without a core or design", req.Scenario)
}

var errNoToolchain = errors.New("rms: provider has no CAD toolchain")

// PrewarmSynthesis synthesizes a design for a device into the provider's
// bitstream library ahead of time, so later allocations pay no CAD time.
// This models the paper's OpenCores scenario, where the provider keeps
// ready bitstreams for popular library IPs.
func (m *Matchmaker) PrewarmSynthesis(d *hdl.Design, dev fabric.Device) error {
	if m.tc == nil {
		return errNoToolchain
	}
	if !m.tc.Supports(dev.Family) {
		return fmt.Errorf("rms: toolchain does not support %s", dev.Family)
	}
	if m.cachedSynthesis(d.Name, dev) != nil {
		return nil
	}
	res, err := m.tc.Synthesize(d, dev, dev.PartialRecon)
	if err != nil {
		return err
	}
	m.commit(res)
	return nil
}

// synthKey identifies one synthesis: a design for a device, partial or
// full.
type synthKey struct {
	design, device string
	partial        bool
}

// cachedSynthesis returns the committed synthesis of the named design for
// the kind of image dev loads, or nil.
func (m *Matchmaker) cachedSynthesis(design string, dev fabric.Device) *hdl.SynthesisResult {
	m.synthMu.RLock()
	defer m.synthMu.RUnlock()
	return m.synthCache[synthKey{design, dev.FPGACaps.Device, dev.PartialRecon}]
}

// commit adds a first synthesis to the cache and returns the tool seconds
// to charge for it. A concurrent caller may have committed the same
// design×device×kind first; its result stays, and this duplicate is free
// since the cost was already charged once.
func (m *Matchmaker) commit(res *hdl.SynthesisResult) float64 {
	k := synthKey{res.Design, res.Device, res.Bitstream.Partial}
	m.synthMu.Lock()
	defer m.synthMu.Unlock()
	if _, ok := m.synthCache[k]; ok {
		return 0
	}
	if m.synthCache == nil {
		m.synthCache = make(map[synthKey]*hdl.SynthesisResult)
	}
	m.synthCache[k] = res
	return res.ToolSeconds
}

// compactionCost reports defragmentation work done during configure.
type compactionCost struct {
	delay sim.Time
	moves int
}

// configure loads a bitstream. When a partial placement fails it first
// compacts the fabric (preserving loaded configurations), then falls back
// to evicting idle configurations oldest-first. It fails with the fabric's
// own error once nothing idle is left to evict.
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
		r := f.OldestIdle()
		if r == nil {
			return nil, 0, compaction, err
		}
		if err := f.Evict(r); err != nil {
			return nil, 0, compaction, err
		}
	}
}
