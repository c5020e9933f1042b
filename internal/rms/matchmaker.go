package rms

import (
	"fmt"
	"sync"

	"repro/internal/capability"
	"repro/internal/hdl"
	"repro/internal/node"
	"repro/internal/pe"
	"repro/internal/softcore"
	"repro/internal/task"
)

// Candidate is one feasible (element, node) mapping for a task — a row
// fragment of Table II ("RPE0 ↔ Node1").
type Candidate struct {
	Node *node.Node
	Elem *node.Element
	// Core is the soft-core configuration selected for predetermined-
	// hardware tasks and for the software-only fallback; nil otherwise.
	Core *softcore.Core
	// Slices is the fabric area the task will occupy (0 on GPPs/GPUs).
	Slices int
	// AlreadyLoaded reports that the required configuration is resident
	// and idle on the fabric, so no reconfiguration is needed.
	AlreadyLoaded bool
	// Fallback marks a software-only task mapped onto an RPE via a
	// soft-core CPU because no GPP was available (Section III-A).
	Fallback bool
}

// Label renders the candidate in Table II notation. It allocates; the
// engine only renders it for submissions that opted into monitoring.
func (c Candidate) Label() string {
	return c.Elem.ID + " <-> " + c.Node.ID
}

// Matchmaker evaluates ExecReq predicates against registered capability
// sets, with scenario-specific handling for each of the paper's four
// use-cases.
type Matchmaker struct {
	reg *Registry
	// tc is the provider's CAD toolchain, required for the user-defined-
	// hardware scenario.
	tc *hdl.Toolchain
	// cores is the provider's soft-core library, used by the
	// predetermined-hardware scenario and the software-only fallback.
	// Read-only: it is defaultCores, shared by every matchmaker.
	cores []*softcore.Core
	// synthCache memoizes synthesis results per design×device×kind so CAD
	// time is paid once: matching mutates the cache, and two engines
	// sharing a matchmaker (or a future concurrent RMS) would otherwise
	// race. It holds one entry per design and device the provider has
	// synthesized: 8 for the default workload's four designs on
	// grid.DefaultGridSpec's two parts, 1 on a control-plane tenant. A
	// lookup in a slice that short is a few comparisons, and the slice
	// is a fraction of a map's size.
	synthMu    sync.RWMutex
	synthCache []synthEntry // guarded by synthMu
	// candBuf is the scratch candidate slice the scenario scans build
	// into; the returned slice is valid until the next Candidates call
	// (the engine consumes it within one dispatch attempt).
	candBuf []Candidate
	// nodesBuf is the scratch node slice the candidate scans reuse.
	// Candidates runs on the engine's simulator goroutine only, so the
	// buffer is not guarded; a matchmaker shared across concurrent engines
	// must not be (each RunScenario builds its own).
	nodesBuf []*node.Node
	// DisableCompaction turns off fabric defragmentation during
	// allocation; the ablation benchmarks flip it.
	DisableCompaction bool
}

// defaultCores is the ρ-VEX library (8-, 4- and 2-issue, one cluster)
// of every matchmaker. Cores are immutable, so one library serves every
// node, tenant and sweep worker.
var defaultCores = sync.OnceValues(func() ([]*softcore.Core, error) {
	var cores []*softcore.Core
	for _, iw := range []int{8, 4, 2} {
		c, err := softcore.RVEX(iw, 1)
		if err != nil {
			return nil, err
		}
		cores = append(cores, c)
	}
	return cores, nil
})

// NewMatchmaker builds a matchmaker over a registry with the shared
// ρ-VEX soft-core library. The toolchain may be nil for providers
// without CAD tools (they simply never match user-defined-hardware
// tasks, per Section III-B3).
func NewMatchmaker(reg *Registry, tc *hdl.Toolchain) (*Matchmaker, error) {
	if reg == nil {
		return nil, fmt.Errorf("rms: matchmaker needs a registry")
	}
	cores, err := defaultCores()
	if err != nil {
		return nil, err
	}
	return &Matchmaker{reg: reg, tc: tc, cores: cores}, nil
}

// nodes snapshots the registry into the matchmaker's scratch buffer for
// one candidate scan. Valid until the next call.
func (m *Matchmaker) nodes() []*node.Node {
	m.nodesBuf = m.reg.AppendTo(m.nodesBuf[:0])
	return m.nodesBuf
}

// Candidates returns every feasible mapping for the ExecReq in
// deterministic (registration, installation) order. An empty result with a
// nil error means no resource currently satisfies the requirements.
//
// The returned slice is backed by the matchmaker's scratch buffer and is
// valid until the next Candidates call: consume (or copy) it before
// matching again.
func (m *Matchmaker) Candidates(req task.ExecReq) ([]Candidate, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	switch req.Scenario {
	case pe.SoftwareOnly:
		return m.softwareCandidates(req)
	case pe.PredeterminedHW:
		if req.Requirements.Kind() == capability.KindGPU {
			return m.gpuCandidates(req)
		}
		return m.softcoreCandidates(req)
	case pe.UserDefinedHW:
		return m.userDefinedCandidates(req)
	case pe.DeviceSpecificHW:
		return m.deviceSpecificCandidates(req)
	}
	return nil, fmt.Errorf("rms: unhandled scenario %v", req.Scenario)
}

// softwareCandidates matches GPPs; when every matching GPP is fully busy
// (or none exists), it falls back to configuring a soft-core CPU on an
// available RPE — the paper's backward-compatibility path.
func (m *Matchmaker) softwareCandidates(req task.ExecReq) ([]Candidate, error) {
	out := m.candBuf[:0]
	for _, n := range m.nodes() {
		for _, e := range n.GPPs() {
			ok, err := req.Requirements.SatisfiedBy(e.Caps())
			if err != nil {
				return nil, err
			}
			if ok && e.FreeCores() > 0 {
				out = append(out, Candidate{Node: n, Elem: e})
			}
		}
	}
	if len(out) > 0 {
		m.candBuf = out
		return out, nil
	}
	// Fallback: soft-core CPU on an RPE, sized to the task's GPP demands.
	return m.softcoreFallback(req)
}

// minMIPSRequirement extracts the gpp.mips lower bound from requirements,
// or 0 when unconstrained.
func minMIPSRequirement(reqs capability.Requirements) float64 {
	min := 0.0
	for _, r := range reqs {
		if r.Param == capability.ParamGPPMIPS && (r.Op == capability.OpGe || r.Op == capability.OpGt) {
			if v := r.Value.Number(); v > min {
				min = v
			}
		}
	}
	return min
}

func (m *Matchmaker) softcoreFallback(req task.ExecReq) ([]Candidate, error) {
	needMIPS := minMIPSRequirement(req.Requirements)
	out := m.candBuf[:0]
	for _, n := range m.nodes() {
		for _, e := range n.RPEs() {
			core := m.pickCore("", needMIPS, e)
			if core == nil {
				continue
			}
			out = append(out, Candidate{
				Node: n, Elem: e, Core: core,
				Slices:   core.Config().Slices(),
				Fallback: true,
			})
		}
	}
	m.candBuf = out
	return out, nil
}

// pickCore returns the first library core matching the ISA (when given)
// that delivers the required MIPS and fits the element's device.
func (m *Matchmaker) pickCore(isa string, needMIPS float64, e *node.Element) *softcore.Core {
	if e.Fabric == nil {
		return nil
	}
	dev := e.Fabric.Device()
	for _, c := range m.cores {
		cfg := c.Config()
		if isa != "" && cfg.Caps.ISA != isa {
			continue
		}
		if needMIPS > 0 && cfg.EffectiveMIPS() < needMIPS {
			continue
		}
		if cfg.Slices() > dev.Slices {
			continue
		}
		return c
	}
	return nil
}

// softcoreCandidates matches predetermined-hardware tasks: RPEs that can
// host a library core with the requested ISA whose capability set
// satisfies the softcore.* requirements.
func (m *Matchmaker) softcoreCandidates(req task.ExecReq) ([]Candidate, error) {
	out := m.candBuf[:0]
	for _, n := range m.nodes() {
		for _, e := range n.RPEs() {
			dev := e.Fabric.Device()
			for _, c := range m.cores {
				cfg := c.Config()
				if req.SoftcoreISA != "" && cfg.Caps.ISA != req.SoftcoreISA {
					continue
				}
				ok, err := req.Requirements.SatisfiedBy(c.Caps())
				if err != nil {
					return nil, err
				}
				if !ok || cfg.Slices() > dev.Slices {
					continue
				}
				bs, err := c.Bitstream(dev)
				if err != nil {
					return nil, err
				}
				out = append(out, Candidate{
					Node: n, Elem: e, Core: c,
					Slices:        cfg.Slices(),
					AlreadyLoaded: e.Fabric.FindLoaded(bs.ID) != nil,
				})
				break // first matching core per element
			}
		}
	}
	m.candBuf = out
	return out, nil
}

// gpuCandidates matches GPU-targeted pre-determined tasks — the taxonomy's
// extensibility beyond FPGAs exercised: free GPU elements whose Table I
// capability set satisfies the gpu.* predicates.
func (m *Matchmaker) gpuCandidates(req task.ExecReq) ([]Candidate, error) {
	out := m.candBuf[:0]
	for _, n := range m.nodes() {
		for _, e := range n.ByKind(capability.KindGPU) {
			if e.Busy() {
				continue
			}
			ok, err := req.Requirements.SatisfiedBy(e.Caps())
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, Candidate{Node: n, Elem: e})
			}
		}
	}
	m.candBuf = out
	return out, nil
}

// userDefinedCandidates matches user-defined-hardware tasks: the provider
// must own CAD tools for the element's family, the capability predicates
// must hold, and the Quipu area estimate must fit the device.
func (m *Matchmaker) userDefinedCandidates(req task.ExecReq) ([]Candidate, error) {
	if m.tc == nil {
		// Provider has no CAD tools: it cannot serve this scenario at all.
		return nil, nil
	}
	area, err := m.tc.EstimateArea(req.Design)
	if err != nil {
		return nil, err
	}
	out := m.candBuf[:0]
	for _, n := range m.nodes() {
		for _, e := range n.RPEs() {
			dev := e.Fabric.Device()
			if !m.tc.Supports(dev.Family) {
				continue
			}
			ok, err := req.Requirements.SatisfiedBy(e.Caps())
			if err != nil {
				return nil, err
			}
			if !ok || area.Slices > dev.Slices || area.BRAMKb > dev.BRAMKb || area.DSPSlices > dev.DSPSlices {
				continue
			}
			// A design never synthesized for this device cannot be
			// resident on it.
			res := m.cachedSynthesis(req.Design.Name, dev)
			out = append(out, Candidate{
				Node: n, Elem: e,
				Slices:        area.Slices,
				AlreadyLoaded: res != nil && e.Fabric.FindLoaded(res.Bitstream.ID) != nil,
			})
		}
	}
	m.candBuf = out
	return out, nil
}

// deviceSpecificCandidates matches device-specific tasks: only elements
// whose exact part matches the user's bitstream qualify.
func (m *Matchmaker) deviceSpecificCandidates(req task.ExecReq) ([]Candidate, error) {
	out := m.candBuf[:0]
	for _, n := range m.nodes() {
		for _, e := range n.RPEs() {
			dev := e.Fabric.Device()
			if dev.FPGACaps.Device != req.Bitstream.Device {
				continue
			}
			ok, err := req.Requirements.SatisfiedBy(e.Caps())
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			out = append(out, Candidate{
				Node: n, Elem: e,
				Slices:        req.Bitstream.Slices,
				AlreadyLoaded: e.Fabric.FindLoaded(req.Bitstream.ID) != nil,
			})
		}
	}
	m.candBuf = out
	return out, nil
}
