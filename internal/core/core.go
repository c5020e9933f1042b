// Package core is the paper's primary contribution: the virtualization
// framework for reconfigurable processing elements in distributed systems.
//
// It ties the substrates together into a *virtual organization*: a grid
// whose nodes carry GPPs and RPEs behind a hardware-independent layer. The
// user picks an abstraction level (Fig. 2) — from "software only, the grid
// looks like any other grid" down to "I ship a bitstream for one exact
// device" — and the framework maps application tasks to concrete
// processing elements accordingly, adding and removing resources at
// runtime without disturbing running work.
package core

import (
	"fmt"

	"repro/internal/hdl"
	"repro/internal/node"
	"repro/internal/pe"
	"repro/internal/rms"
	"repro/internal/sched"
	"repro/internal/task"
)

// Level is a virtualization/abstraction level from Fig. 2. Levels order
// from the most abstract (the user sees only grid nodes) to the least (the
// user sees exact devices); descending a level buys performance with
// specification effort.
type Level int

// The abstraction levels of Fig. 2, highest first.
const (
	// LevelGrid: the user sees grid nodes only; applications are
	// software-only and RPEs are invisible (soft-core fallback happens
	// behind the curtain).
	LevelGrid Level = iota
	// LevelSoftcore: the user additionally sees soft-core CPUs (ρ-VEX
	// configurations) it can target.
	LevelSoftcore
	// LevelFabric: the user sees reconfigurable fabric (families, areas)
	// and submits generic HDL for the provider to synthesize.
	LevelFabric
	// LevelDevice: the user sees exact devices and ships bitstreams.
	LevelDevice
)

var levelNames = map[Level]string{
	LevelGrid:     "grid nodes",
	LevelSoftcore: "soft-core CPUs",
	LevelFabric:   "reconfigurable fabric",
	LevelDevice:   "specific devices",
}

// String names what is visible at the level.
func (l Level) String() string {
	if n, ok := levelNames[l]; ok {
		return n
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// Levels lists the four levels from most to least abstract.
func Levels() []Level {
	return []Level{LevelGrid, LevelSoftcore, LevelFabric, LevelDevice}
}

// LevelOf maps a use-case scenario to its abstraction level.
func LevelOf(s pe.Scenario) Level {
	switch s {
	case pe.SoftwareOnly:
		return LevelGrid
	case pe.PredeterminedHW:
		return LevelSoftcore
	case pe.UserDefinedHW:
		return LevelFabric
	default:
		return LevelDevice
	}
}

// ScenarioOf maps an abstraction level back to its use-case scenario.
func ScenarioOf(l Level) pe.Scenario {
	switch l {
	case LevelGrid:
		return pe.SoftwareOnly
	case LevelSoftcore:
		return pe.PredeterminedHW
	case LevelFabric:
		return pe.UserDefinedHW
	default:
		return pe.DeviceSpecificHW
	}
}

// Options configure a virtual grid.
type Options struct {
	// Toolchain is the provider's CAD tools; nil models a provider that
	// cannot serve the user-defined-hardware scenario.
	Toolchain *hdl.Toolchain
}

// VirtualGrid is the virtual organization: the hardware-independent layer
// between application developers and resources.
type VirtualGrid struct {
	reg *rms.Registry
	mm  *rms.Matchmaker
}

// NewVirtualGrid creates an empty virtual organization.
func NewVirtualGrid(opts Options) (*VirtualGrid, error) {
	reg := rms.NewRegistry()
	mm, err := rms.NewMatchmaker(reg, opts.Toolchain)
	if err != nil {
		return nil, err
	}
	return &VirtualGrid{reg: reg, mm: mm}, nil
}

// AttachNode adds a node at runtime.
func (vg *VirtualGrid) AttachNode(n *node.Node) error { return vg.reg.AddNode(n) }

// DetachNode removes an idle node at runtime.
func (vg *VirtualGrid) DetachNode(id string) error { return vg.reg.RemoveNode(id) }

// MapTask returns the feasible (element, node) mappings for a task — the
// virtualization act itself: a task stated at some abstraction level lands
// on concrete processing elements (Table II's "possible mappings" column).
func (vg *VirtualGrid) MapTask(t *task.Task) ([]rms.Candidate, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return vg.mm.Candidates(t.ExecReq)
}

// Place maps a task and leases the first candidate that takes it,
// through the RMS's placement step with first-fit and no link, for
// callers that execute tasks directly rather than through the simulator.
func (vg *VirtualGrid) Place(t *task.Task) (*rms.Lease, rms.Candidate, error) {
	if err := t.Validate(); err != nil {
		return nil, rms.Candidate{}, err
	}
	var opts []sched.Option
	p, ok := sched.Place(vg.mm, &t.ExecReq, t.Work, nil, nil, &opts)
	if !ok {
		return nil, rms.Candidate{}, fmt.Errorf("core: no resource satisfies %s", t.ID)
	}
	return &p.Lease, p.Lease.Cand, nil
}

// View is what a user sees at one abstraction level (Fig. 2): the visible
// resource descriptions, with everything below the level hidden.
type View struct {
	Level     Level
	Resources []string
}

// ViewAt renders the virtual organization at an abstraction level.
func (vg *VirtualGrid) ViewAt(l Level) View {
	v := View{Level: l}
	switch l {
	case LevelGrid:
		for _, n := range vg.reg.Nodes() {
			gpps := len(n.GPPs())
			v.Resources = append(v.Resources, fmt.Sprintf("%s (%d processors)", n.ID, gppsOrFallback(gpps, len(n.RPEs()))))
		}
	case LevelSoftcore:
		for _, n := range vg.reg.Nodes() {
			for _, e := range n.RPEs() {
				v.Resources = append(v.Resources, fmt.Sprintf("%s/%s: soft-core capable RPE (%d slices)", n.ID, e.ID, e.Fabric.Device().Slices))
			}
		}
	case LevelFabric:
		for _, n := range vg.reg.Nodes() {
			for _, e := range n.RPEs() {
				dev := e.Fabric.Device()
				v.Resources = append(v.Resources, fmt.Sprintf("%s/%s: %s fabric, %d slices, %d Kb BRAM", n.ID, e.ID, dev.Family, dev.Slices, dev.BRAMKb))
			}
		}
	case LevelDevice:
		for _, n := range vg.reg.Nodes() {
			for _, e := range n.RPEs() {
				st := e.Fabric.State()
				v.Resources = append(v.Resources, fmt.Sprintf("%s/%s: %s (%s)", n.ID, e.ID, e.Fabric.Device().FPGACaps.Device, st))
			}
		}
	}
	return v
}

// gppsOrFallback counts processors visible at grid level: GPPs plus RPEs
// (which can masquerade as soft-core CPUs).
func gppsOrFallback(gpps, rpes int) int { return gpps + rpes }
