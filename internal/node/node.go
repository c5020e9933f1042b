// Package node implements the paper's grid node model (Eq. 1, Fig. 3):
//
//	Node(NodeID, GPP Caps, RPE Caps, state)
//
// A node holds lists of processing elements — GPPs and RPEs (and GPUs, via
// the taxonomy's extensibility) — each characterized by a Table I
// capability set, plus dynamically changing state: which configurations an
// RPE currently holds, how much reconfigurable area is free, and which GPP
// cores are busy. Nodes are "generic and adaptive in adding/removing
// resources at runtime".
package node

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/capability"
	"repro/internal/fabric"
	"repro/internal/gpp"
	"repro/internal/gpu"
)

// Element is one processing element installed in a node. Exactly one of
// the backing models is non-nil, matching Kind.
type Element struct {
	// ID is unique within the node, e.g. "GPP0" or "RPE1" (Fig. 5 naming).
	ID   string
	Kind capability.Kind
	// GPP, Fabric, GPU back the element's behaviour.
	GPP    *gpp.Processor
	Fabric *fabric.Fabric
	GPU    *gpu.Device

	caps      capability.Set // shared, read-only: see capSets
	busyCores int            // GPP: cores currently executing tasks
	busyGPU   bool           // GPU occupancy
}

// Caps returns the element's Table I capability set. The set is the
// static half of the node tuple and is shared by every element built
// from the same description, on every node: callers must not mutate it.
func (e *Element) Caps() capability.Set { return e.caps }

// capSets holds the one capability set of every distinct GPP, RPE and GPU
// description installed in any node of the process. Shards and sweep
// workers install nodes concurrently, so it is locked; it grows with
// distinct descriptions only, never with nodes, tenants or tasks.
var capSets = struct {
	mu   sync.Mutex
	sets map[any]capability.Set // guarded by mu
}{sets: make(map[any]capability.Set)}

// sharedSet returns the shared set for description c, building it on
// first use.
func sharedSet[C interface {
	comparable
	Set() capability.Set
}](c C) capability.Set {
	capSets.mu.Lock()
	defer capSets.mu.Unlock()
	s, ok := capSets.sets[c]
	if !ok {
		s = c.Set()
		capSets.sets[c] = s
	}
	return s
}

// FreeCores returns idle GPP cores (0 for non-GPP elements).
func (e *Element) FreeCores() int {
	if e.GPP == nil {
		return 0
	}
	return e.GPP.Caps.Cores - e.busyCores
}

// AcquireCore marks one GPP core busy.
func (e *Element) AcquireCore() error {
	if e.GPP == nil {
		return fmt.Errorf("node: %s is not a GPP", e.ID)
	}
	if e.FreeCores() <= 0 {
		return fmt.Errorf("node: %s has no free cores", e.ID)
	}
	e.busyCores++
	return nil
}

// ReleaseCore returns one GPP core.
func (e *Element) ReleaseCore() error {
	if e.GPP == nil {
		return fmt.Errorf("node: %s is not a GPP", e.ID)
	}
	if e.busyCores <= 0 {
		return fmt.Errorf("node: %s has no busy cores", e.ID)
	}
	e.busyCores--
	return nil
}

// AcquireGPU marks the GPU busy.
func (e *Element) AcquireGPU() error {
	if e.GPU == nil {
		return fmt.Errorf("node: %s is not a GPU", e.ID)
	}
	if e.busyGPU {
		return fmt.Errorf("node: %s is busy", e.ID)
	}
	e.busyGPU = true
	return nil
}

// ReleaseGPU returns the GPU.
func (e *Element) ReleaseGPU() error {
	if e.GPU == nil {
		return fmt.Errorf("node: %s is not a GPU", e.ID)
	}
	if !e.busyGPU {
		return fmt.Errorf("node: %s is not busy", e.ID)
	}
	e.busyGPU = false
	return nil
}

// Busy reports whether any capacity of the element is in use.
func (e *Element) Busy() bool {
	switch {
	case e.GPP != nil:
		return e.busyCores > 0
	case e.Fabric != nil:
		return e.Fabric.State().BusyRegions > 0
	case e.GPU != nil:
		return e.busyGPU
	}
	return false
}

// StateLine renders the element's dynamic state in the Fig. 5 style.
func (e *Element) StateLine() string {
	switch {
	case e.GPP != nil:
		if e.busyCores == 0 {
			return fmt.Sprintf("%s: idle (%d cores free)", e.ID, e.FreeCores())
		}
		return fmt.Sprintf("%s: %d/%d cores busy", e.ID, e.busyCores, e.GPP.Caps.Cores)
	case e.Fabric != nil:
		return fmt.Sprintf("%s: %s", e.ID, e.Fabric.State())
	case e.GPU != nil:
		if e.busyGPU {
			return fmt.Sprintf("%s: busy", e.ID)
		}
		return fmt.Sprintf("%s: idle", e.ID)
	}
	return e.ID + ": ?"
}

// Node is a grid computing node.
type Node struct {
	ID string

	// elems is the node's only index of its elements: a node holds a
	// handful, and lookups by ID run only on fault and churn events.
	elems []*Element
	// seq is the next element number per kind (GPP0, GPP1, …).
	seq [capability.NumKinds]int
	// byKind caches the per-kind element lists (installation order),
	// rebuilt on install/remove, so the matchmaker's per-dispatch kind
	// scans allocate nothing.
	byKind [capability.NumKinds][]*Element
}

// New creates an empty node.
func New(id string) (*Node, error) {
	if id == "" {
		return nil, fmt.Errorf("node: empty node ID")
	}
	return &Node{ID: id}, nil
}

func (n *Node) install(e *Element) *Element {
	n.elems = append(n.elems, e)
	n.byKind[e.Kind] = append(n.byKind[e.Kind], e)
	return e
}

// index returns the position of the element with the given ID in elems,
// or -1.
func (n *Node) index(id string) int {
	return slices.IndexFunc(n.elems, func(e *Element) bool { return e.ID == id })
}

func (n *Node) nextID(kind capability.Kind) string {
	var prefix string
	switch kind {
	case capability.KindGPP:
		prefix = "GPP"
	case capability.KindFPGA:
		prefix = "RPE"
	case capability.KindGPU:
		prefix = "GPU"
	default:
		prefix = "PE"
	}
	id := prefix + strconv.Itoa(n.seq[kind])
	n.seq[kind]++
	return id
}

// AddGPP installs a general-purpose processor; IDs follow Fig. 5 (GPP0,
// GPP1, …).
func (n *Node) AddGPP(caps capability.GPPCaps) (*Element, error) {
	p, err := gpp.New(caps)
	if err != nil {
		return nil, err
	}
	return n.install(&Element{
		ID:   n.nextID(capability.KindGPP),
		Kind: capability.KindGPP,
		GPP:  p,
		caps: sharedSet(caps),
	}), nil
}

// AddRPE installs a reconfigurable processing element backed by a catalog
// FPGA device (RPE0, RPE1, …).
func (n *Node) AddRPE(device string) (*Element, error) {
	f, err := fabric.NewByName(device)
	if err != nil {
		return nil, err
	}
	return n.installFabric(f), nil
}

// AddRPEDevice installs an RPE from an explicit device description,
// allowing experiments to vary device parameters (reconfiguration
// bandwidth, partial-reconfiguration support) beyond the catalog.
func (n *Node) AddRPEDevice(dev fabric.Device) (*Element, error) {
	if err := dev.Validate(); err != nil {
		return nil, err
	}
	return n.installFabric(fabric.New(dev)), nil
}

func (n *Node) installFabric(f *fabric.Fabric) *Element {
	return n.install(&Element{
		ID:     n.nextID(capability.KindFPGA),
		Kind:   capability.KindFPGA,
		Fabric: f,
		caps:   sharedSet(f.Device().FPGACaps),
	})
}

// AddGPU installs a GPU element.
func (n *Node) AddGPU(caps capability.GPUCaps, coreClockMHz float64) (*Element, error) {
	d, err := gpu.New(caps, coreClockMHz)
	if err != nil {
		return nil, err
	}
	return n.install(&Element{
		ID:   n.nextID(capability.KindGPU),
		Kind: capability.KindGPU,
		GPU:  d,
		caps: sharedSet(caps),
	}), nil
}

// Remove detaches an idle element at runtime (the framework's dynamic
// remove). Busy elements cannot be removed.
func (n *Node) Remove(elemID string) error {
	i := n.index(elemID)
	if i < 0 {
		return fmt.Errorf("node: %s has no element %s", n.ID, elemID)
	}
	e := n.elems[i]
	if e.Busy() {
		return fmt.Errorf("node: element %s is busy", elemID)
	}
	n.elems = append(n.elems[:i], n.elems[i+1:]...)
	kin := n.byKind[e.Kind]
	for i, el := range kin {
		if el == e {
			n.byKind[e.Kind] = append(kin[:i], kin[i+1:]...)
			break
		}
	}
	return nil
}

// Elements returns all elements in installation order.
func (n *Node) Elements() []*Element { return append([]*Element(nil), n.elems...) }

// ByKind returns the elements of one kind in installation order, or nil
// for a kind outside the Table I enum. The returned slice is the node's
// cached view — read-only; callers must not mutate it or hold it across
// Add*/Remove calls. It is rendered on every matchmaking pass, which is
// why it cannot afford a defensive copy.
func (n *Node) ByKind(kind capability.Kind) []*Element {
	if kind < 0 || int(kind) >= capability.NumKinds {
		return nil
	}
	return n.byKind[kind]
}

// GPPs returns the node's general-purpose processors.
func (n *Node) GPPs() []*Element { return n.ByKind(capability.KindGPP) }

// RPEs returns the node's reconfigurable processing elements.
func (n *Node) RPEs() []*Element { return n.ByKind(capability.KindFPGA) }

// Snapshot is a point-in-time rendering of the node tuple: static
// capabilities plus dynamic state, as Fig. 5 draws for the case study.
type Snapshot struct {
	NodeID string
	Lines  []string
}

// Snapshot captures the node's current state.
func (n *Node) Snapshot() Snapshot {
	s := Snapshot{NodeID: n.ID}
	for _, e := range n.elems {
		var desc string
		switch {
		case e.GPP != nil:
			desc = e.GPP.Caps.String()
		case e.Fabric != nil:
			desc = e.Fabric.Device().FPGACaps.String()
		case e.GPU != nil:
			desc = e.GPU.Caps.String()
		}
		s.Lines = append(s.Lines, fmt.Sprintf("%s = %s", e.ID, desc))
		s.Lines = append(s.Lines, "  state: "+e.StateLine())
	}
	return s
}

// String renders the snapshot.
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Node(%s):\n", s.NodeID)
	for _, l := range s.Lines {
		fmt.Fprintf(&b, "  %s\n", l)
	}
	return b.String()
}
