// Package softcore models parameterizable soft-core VLIW processors in the
// style of the ρ-VEX processor the paper cites [15]: a core configuration
// (issue width, clusters, functional units, memories) that can be
// synthesized onto a reconfigurable fabric, with an area cost model and an
// execution-time estimator.
//
// Soft-cores are the mechanism behind two scenarios: the software-only
// fallback ("configure a soft-core CPU on a currently available RPE") and
// the pre-determined hardware configuration scenario.
package softcore

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/capability"
	"repro/internal/fabric"
	"repro/internal/hdl"
	"repro/internal/pe"
)

// Config is a soft-core configuration — the tunable parameter set the paper
// lists for the ρ-VEX: "the number of issue slots, cluster cores, the number
// and types of functional units, or the number of memory units".
type Config struct {
	Caps capability.SoftcoreCaps
	// ClockMHz is the synthesized core's clock; soft-cores run far below
	// hard CPU clocks, which the scenario trades for flexibility.
	ClockMHz float64
}

// Validate reports structural problems.
func (c Config) Validate() error {
	if err := c.Caps.Validate(); err != nil {
		return err
	}
	if c.ClockMHz <= 0 {
		return fmt.Errorf("softcore: non-positive clock %g MHz", c.ClockMHz)
	}
	return nil
}

// Area cost model coefficients (slices), calibrated to published ρ-VEX
// synthesis results: a 4-issue single-cluster core occupies roughly 6-7 k
// Virtex-class slices.
const (
	areaBase       = 1200 // decode, control, load/store unit
	areaPerIssue   = 900  // per issue slot: ALU datapath + bypass
	areaPerMulFU   = 450  // extra per multiplier FU
	areaPerCluster = 800  // inter-cluster interconnect and register copies
	areaPerRegByte = 2    // register file, per 32-bit register
)

// Slices returns the fabric area the configuration occupies when
// synthesized.
func (c Config) Slices() int {
	mulFUs := 0
	for _, fu := range c.Caps.FUTypes {
		if strings.EqualFold(strings.TrimSpace(fu), "MUL") {
			mulFUs++
		}
	}
	return areaBase +
		areaPerIssue*c.Caps.IssueWidth +
		areaPerMulFU*mulFUs*c.Caps.IssueWidth +
		areaPerCluster*(c.Caps.Clusters-1) +
		areaPerRegByte*c.Caps.RegFile
}

// EffectiveMIPS converts the configuration into an equivalent MIPS rating:
// clock × issue width × an ILP efficiency factor (compilers rarely fill all
// slots) × cluster scaling with diminishing returns.
func (c Config) EffectiveMIPS() float64 {
	const ilpEfficiency = 0.6
	clusterScale := 1.0
	for i := 1; i < c.Caps.Clusters; i++ {
		clusterScale += 0.7 // each extra cluster adds 70 % of a cluster
	}
	return c.ClockMHz * float64(c.Caps.IssueWidth) * ilpEfficiency * clusterScale
}

// Core is a synthesizable soft-core: a configuration plus what the
// matchmaker reads on every candidate scan and placement, built once. A
// Core never changes what it returns, so one library serves every
// matchmaker.
type Core struct {
	cfg    Config
	caps   capability.Set
	design string
	// images memoizes Bitstream per part and reconfiguration kind. Cores
	// are shared across goroutines, so mu guards it.
	mu     sync.RWMutex
	images map[imageKey]*fabric.Bitstream // guarded by mu
}

// imageKey identifies one configuration image of a core. A catalog part
// name fixes every device field the image reads.
type imageKey struct {
	device  string
	partial bool
}

// New validates the configuration and returns a core model.
func New(cfg Config) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Core{
		cfg:    cfg,
		caps:   cfg.Caps.Set(),
		design: "softcore-" + cfg.Caps.ISA + strconv.Itoa(cfg.Caps.IssueWidth),
	}, nil
}

// Config returns the core's configuration.
func (c *Core) Config() Config { return c.cfg }

// Caps returns the configuration's Table I capability set. The set is
// shared by every matchmaker using the core: callers must not mutate it.
func (c *Core) Caps() capability.Set { return c.caps }

// Kind implements pe.Estimator.
func (c *Core) Kind() capability.Kind { return capability.KindSoftcore }

// EstimateSeconds implements pe.Estimator. Issue slots act as the parallel
// resource in the Amdahl term beyond the ILP already folded into
// EffectiveMIPS: a fully sequential workload cannot even use the slots.
func (c *Core) EstimateSeconds(w pe.Work) (float64, error) {
	if err := w.Validate(); err != nil {
		return 0, err
	}
	mips := c.cfg.EffectiveMIPS()
	// Sequential workloads degrade toward single-issue throughput: with
	// parallel fraction 0 the effective rate collapses to mips/issueWidth.
	scale := pe.Amdahl(w.ParallelFraction, float64(c.cfg.Caps.IssueWidth)) / float64(c.cfg.Caps.IssueWidth)
	eff := mips * scale
	if eff <= 0 {
		return 0, fmt.Errorf("softcore: non-positive effective rate")
	}
	return w.MInstructions / eff, nil
}

// Bitstream returns the core synthesized for a device: a partial
// bitstream sized by the core's area model where the device supports
// partial reconfiguration, a full-device image otherwise. Each image is
// built once and shared, so callers must not mutate it. It fails when the
// core does not fit the device.
func (c *Core) Bitstream(dev fabric.Device) (*fabric.Bitstream, error) {
	k := imageKey{dev.FPGACaps.Device, dev.PartialRecon}
	c.mu.RLock()
	bs := c.images[k]
	c.mu.RUnlock()
	if bs != nil {
		return bs, nil
	}
	slices := c.cfg.Slices()
	if slices > dev.Slices {
		return nil, fmt.Errorf("softcore: %s needs %d slices, %s has %d",
			c.cfg.Caps.ISA, slices, dev.FPGACaps.Device, dev.Slices)
	}
	id := hdl.BitstreamID(c.design, dev.FPGACaps.Device, dev.PartialRecon)
	if dev.PartialRecon {
		bs = fabric.PartialBitstream(id, "softcore-"+c.cfg.Caps.ISA, dev, slices)
		bs.ClockMHz = c.cfg.ClockMHz
	} else {
		bs = fabric.FullBitstream(id, "softcore-"+c.cfg.Caps.ISA, dev, slices)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if prior := c.images[k]; prior != nil {
		return prior, nil
	}
	if c.images == nil {
		c.images = make(map[imageKey]*fabric.Bitstream)
	}
	c.images[k] = bs
	return bs, nil
}

// String summarizes the core.
func (c *Core) String() string {
	return fmt.Sprintf("softcore %s @%g MHz (%d slices, %.0f effective MIPS)",
		c.cfg.Caps.ISA, c.cfg.ClockMHz, c.cfg.Slices(), c.cfg.EffectiveMIPS())
}

// RVEX returns the ρ-VEX-style preset with the requested issue width
// (2, 4, or 8) and cluster count, matching the paper's P_type example.
func RVEX(issueWidth, clusters int) (*Core, error) {
	if issueWidth != 2 && issueWidth != 4 && issueWidth != 8 {
		return nil, fmt.Errorf("softcore: rvex issue width must be 2, 4, or 8 (got %d)", issueWidth)
	}
	if clusters < 1 || clusters > 4 {
		return nil, fmt.Errorf("softcore: rvex clusters must be 1..4 (got %d)", clusters)
	}
	return New(Config{
		Caps: capability.SoftcoreCaps{
			ISA:        "rvex-vliw",
			FUTypes:    []string{"ALU", "MUL", "MEM"},
			IssueWidth: issueWidth,
			IMemKB:     32,
			DMemKB:     32,
			RegFile:    64,
			Pipeline:   5,
			Clusters:   clusters,
		},
		ClockMHz: 150,
	})
}
