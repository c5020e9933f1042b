package fabric

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/sim"
)

// Placement failures are plain values: on a loaded grid most placements
// fail, and the matchmaker answers them by compacting or evicting and
// trying again, so building a message per failure would be wasted work.
var (
	// ErrNoRoom reports that no contiguous free run fits the configuration.
	ErrNoRoom = errors.New("fabric: no contiguous free run fits the configuration")
	// ErrNoBRAM reports that resident configurations hold too much block RAM.
	ErrNoBRAM = errors.New("fabric: not enough free block RAM")
	// ErrNoDSP reports that resident configurations hold too many DSP slices.
	ErrNoDSP = errors.New("fabric: not enough free DSP slices")
	// ErrBusy reports a full reconfiguration while a region is executing.
	ErrBusy = errors.New("fabric: full reconfiguration with a busy region")
)

// Region is a slice range on a fabric currently holding a configuration.
type Region struct {
	// ID is unique per fabric instance.
	ID int
	// Start and Slices locate the region in the slice address space.
	Start  int
	Slices int
	// Bitstream is the loaded configuration.
	Bitstream *Bitstream
	// Busy marks the region as executing a task; busy regions cannot be
	// evicted.
	Busy bool
}

// String summarizes the region.
func (r *Region) String() string {
	state := "idle"
	if r.Busy {
		state = "busy"
	}
	return fmt.Sprintf("region %d [%d+%d) %s (%s)", r.ID, r.Start, r.Start+r.Slices, state, r.Bitstream.Design)
}

// State is a point-in-time snapshot of a fabric — the dynamically changing
// "state" attribute of the paper's node model (Fig. 3): available area and
// the currently loaded configuration(s).
type State struct {
	Device          string
	TotalSlices     int
	AvailableSlices int
	LargestFree     int
	Fragmentation   float64
	Configurations  []string // loaded bitstream IDs, sorted
	BusyRegions     int
	// AvailableBRAMKb and AvailableDSP are the unclaimed secondary
	// resources.
	AvailableBRAMKb int
	AvailableDSP    int
}

// String renders the snapshot as the paper's Fig. 5 notation does
// ("available & idle, not configured").
func (s State) String() string {
	if len(s.Configurations) == 0 {
		return fmt.Sprintf("%s: available and idle, not configured (%d slices free)", s.Device, s.AvailableSlices)
	}
	return fmt.Sprintf("%s: %d configuration(s), %d busy, %d/%d slices free",
		s.Device, len(s.Configurations), s.BusyRegions, s.AvailableSlices, s.TotalSlices)
}

// Fabric is a live FPGA: a device plus its mutable configuration state.
// Fabric is not safe for concurrent use; in the simulator all mutation
// happens on the single event-loop goroutine, and the RMS serializes
// external access.
type Fabric struct {
	dev   Device
	alloc *Allocator
	// regions is kept sorted by ID: IDs are assigned in increasing order
	// and appends preserve that, so reuse lookups (FindLoaded — one call
	// per candidate per dispatch round) scan in deterministic order with
	// no per-call allocation or sort.
	regions []*Region
	nextID  int
	// usedBRAMKb and usedDSP track secondary-resource consumption by
	// resident configurations; slices alone do not bound a placement.
	usedBRAMKb int
	usedDSP    int
}

// New creates an idle, unconfigured fabric for a catalog device.
func New(dev Device) *Fabric {
	return &Fabric{
		dev:   dev,
		alloc: NewAllocator(dev.Slices),
	}
}

// NewByName creates a fabric for a named catalog device.
func NewByName(device string) (*Fabric, error) {
	dev, err := LookupDevice(device)
	if err != nil {
		return nil, err
	}
	return New(dev), nil
}

// Device returns the immutable part description.
func (f *Fabric) Device() Device { return f.dev }

// State returns the current snapshot.
func (f *Fabric) State() State {
	s := State{
		Device:          f.dev.FPGACaps.Device,
		TotalSlices:     f.dev.Slices,
		AvailableSlices: f.alloc.Free(),
		LargestFree:     f.alloc.LargestFree(),
		Fragmentation:   f.alloc.Fragmentation(),
		AvailableBRAMKb: f.dev.BRAMKb - f.usedBRAMKb,
		AvailableDSP:    f.dev.DSPSlices - f.usedDSP,
	}
	for _, r := range f.regions {
		s.Configurations = append(s.Configurations, r.Bitstream.ID)
		if r.Busy {
			s.BusyRegions++
		}
	}
	sort.Strings(s.Configurations)
	return s
}

// FindLoaded returns a loaded, idle region holding the given bitstream ID,
// or nil. A hit lets the scheduler skip reconfiguration entirely
// (configuration reuse). Regions are examined in ID order.
func (f *Fabric) FindLoaded(bitstreamID string) *Region {
	for _, r := range f.regions {
		if !r.Busy && r.Bitstream.ID == bitstreamID {
			return r
		}
	}
	return nil
}

// findResident locates a region in the ID-sorted resident list, returning
// its index or -1 when the exact region object is not resident.
func (f *Fabric) findResident(r *Region) int {
	lo, hi := 0, len(f.regions)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if f.regions[mid].ID < r.ID {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(f.regions) && f.regions[lo] == r {
		return lo
	}
	return -1
}

// checkTarget validates that a bitstream targets this exact device.
func (f *Fabric) checkTarget(bs *Bitstream) error {
	if err := bs.Validate(); err != nil {
		return err
	}
	if bs.Device != f.dev.FPGACaps.Device {
		return fmt.Errorf("fabric: bitstream %s targets %s, device is %s", bs.ID, bs.Device, f.dev.FPGACaps.Device)
	}
	return nil
}

// checkSecondary verifies BRAM and DSP budgets for a new configuration.
func (f *Fabric) checkSecondary(bs *Bitstream) error {
	if f.usedBRAMKb+bs.BRAMKb > f.dev.BRAMKb {
		return ErrNoBRAM
	}
	if f.usedDSP+bs.DSPSlices > f.dev.DSPSlices {
		return ErrNoDSP
	}
	return nil
}

// ConfigureFull performs a full reconfiguration: every existing region is
// wiped and the whole device is given to the new configuration. It fails
// with ErrBusy if any region is busy. The returned delay is what the
// caller must advance in simulated time before the region is usable.
func (f *Fabric) ConfigureFull(bs *Bitstream) (*Region, sim.Time, error) {
	if err := f.checkTarget(bs); err != nil {
		return nil, 0, err
	}
	if bs.Partial {
		return nil, 0, fmt.Errorf("fabric: partial bitstream %s passed to full reconfiguration", bs.ID)
	}
	if bs.Slices > f.dev.Slices {
		return nil, 0, fmt.Errorf("fabric: design needs %d slices, %s has %d", bs.Slices, f.dev.FPGACaps.Device, f.dev.Slices)
	}
	for _, r := range f.regions {
		if r.Busy {
			return nil, 0, ErrBusy
		}
	}
	f.regions = f.regions[:0]
	f.alloc.Reset()
	f.usedBRAMKb, f.usedDSP = 0, 0
	if err := f.checkSecondary(bs); err != nil {
		return nil, 0, err
	}
	start, err := f.alloc.Alloc(bs.Slices)
	if err != nil {
		return nil, 0, err // unreachable after Reset, kept for safety
	}
	f.nextID++
	r := &Region{ID: f.nextID, Start: start, Slices: bs.Slices, Bitstream: bs}
	f.regions = append(f.regions, r)
	f.usedBRAMKb += bs.BRAMKb
	f.usedDSP += bs.DSPSlices
	return r, ConfigDelay(bs.SizeBytes, f.dev.ReconfigMBps), nil
}

// ConfigurePartial loads a partial bitstream into a newly allocated region,
// leaving existing regions untouched. It fails if the device does not
// support partial reconfiguration, and with ErrNoRoom, ErrNoBRAM or
// ErrNoDSP when the resident configurations leave too little room.
func (f *Fabric) ConfigurePartial(bs *Bitstream) (*Region, sim.Time, error) {
	if err := f.checkTarget(bs); err != nil {
		return nil, 0, err
	}
	if !bs.Partial {
		return nil, 0, fmt.Errorf("fabric: full bitstream %s passed to partial reconfiguration", bs.ID)
	}
	if !f.dev.PartialRecon {
		return nil, 0, fmt.Errorf("fabric: %s does not support partial reconfiguration", f.dev.FPGACaps.Device)
	}
	if err := f.checkSecondary(bs); err != nil {
		return nil, 0, err
	}
	start, err := f.alloc.Alloc(bs.Slices)
	if err != nil {
		return nil, 0, err
	}
	f.nextID++
	r := &Region{ID: f.nextID, Start: start, Slices: bs.Slices, Bitstream: bs}
	f.regions = append(f.regions, r)
	f.usedBRAMKb += bs.BRAMKb
	f.usedDSP += bs.DSPSlices
	return r, ConfigDelay(bs.SizeBytes, f.dev.ReconfigMBps), nil
}

// Evict removes an idle region, freeing its area for future configurations.
func (f *Fabric) Evict(r *Region) error {
	idx := f.findResident(r)
	if idx < 0 {
		return fmt.Errorf("fabric: region %d is not resident", r.ID)
	}
	if r.Busy {
		return fmt.Errorf("fabric: evicting busy region %d", r.ID)
	}
	if err := f.alloc.Release(r.Start, r.Slices); err != nil {
		return err
	}
	f.regions = append(f.regions[:idx], f.regions[idx+1:]...)
	f.usedBRAMKb -= r.Bitstream.BRAMKb
	f.usedDSP -= r.Bitstream.DSPSlices
	return nil
}

// Acquire marks a region busy for task execution.
func (f *Fabric) Acquire(r *Region) error {
	if f.findResident(r) < 0 {
		return fmt.Errorf("fabric: region %d is not resident", r.ID)
	}
	if r.Busy {
		return fmt.Errorf("fabric: region %d already busy", r.ID)
	}
	r.Busy = true
	return nil
}

// ReleaseRegion marks a busy region idle again; the configuration stays
// loaded so a later task needing the same bitstream can reuse it.
func (f *Fabric) ReleaseRegion(r *Region) error {
	if f.findResident(r) < 0 {
		return fmt.Errorf("fabric: region %d is not resident", r.ID)
	}
	if !r.Busy {
		return fmt.Errorf("fabric: region %d is not busy", r.ID)
	}
	r.Busy = false
	return nil
}

// Compact repacks idle regions toward low addresses, consolidating free
// space without losing their configurations. Busy regions are pinned in
// place. Rewriting a moved region costs its configuration delay; the total
// is returned so callers can charge it in simulated time.
func (f *Fabric) Compact() (moved int, delay sim.Time, err error) {
	// Walk the regions in address order, and restore ID order on return.
	slices.SortFunc(f.regions, byStart)
	defer slices.SortFunc(f.regions, byID)
	// Busy regions keep their addresses, so the free list becomes the gaps
	// between them, rebuilt in its own backing array.
	a := f.alloc
	a.free = a.free[:0]
	end := 0
	for _, r := range f.regions {
		if !r.Busy {
			continue
		}
		if r.Start < end {
			return 0, 0, fmt.Errorf("fabric: busy region %d overlaps its predecessor", r.ID)
		}
		if r.Start > end {
			a.free = append(a.free, extent{end, r.Start - end})
		}
		end = r.Start + r.Slices
	}
	if end < a.total {
		a.free = append(a.free, extent{end, a.total - end})
	}
	// Re-place idle regions first-fit in address order. Each region's old
	// range is still free when its turn comes, so none moves up.
	for _, r := range f.regions {
		if r.Busy {
			continue
		}
		start, allocErr := a.Alloc(r.Slices)
		if allocErr != nil {
			// Cannot happen: the region's old range is free.
			return moved, delay, fmt.Errorf("fabric: compaction failed to re-place region %d: %w", r.ID, allocErr)
		}
		if start != r.Start {
			moved++
			delay += ConfigDelay(r.Bitstream.SizeBytes, f.dev.ReconfigMBps)
			r.Start = start
		}
	}
	return moved, delay, nil
}

func byStart(a, b *Region) int { return a.Start - b.Start }
func byID(a, b *Region) int    { return a.ID - b.ID }

// OldestIdle returns the idle region loaded first, the one eviction gives
// up first, or nil when every region is busy.
func (f *Fabric) OldestIdle() *Region {
	for _, r := range f.regions {
		if !r.Busy {
			return r
		}
	}
	return nil
}

// Regions returns the resident regions sorted by ID. The returned slice
// is the fabric's own list — read-only; callers must not mutate it or
// hold it across a call that configures, evicts or compacts.
func (f *Fabric) Regions() []*Region { return f.regions }

// Busy reports whether any resident region is running a task.
func (f *Fabric) Busy() bool {
	return slices.ContainsFunc(f.regions, func(r *Region) bool { return r.Busy })
}
