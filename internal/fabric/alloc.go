package fabric

import (
	"fmt"
	"sort"
)

// extent is a contiguous range of slice addresses [Start, Start+Len).
type extent struct {
	Start int
	Len   int
}

// Allocator hands out contiguous slice ranges from a 1-D slice address
// space, the standard abstraction for slot-based dynamic partial
// reconfiguration. Contiguity matters: it makes external fragmentation a
// real phenomenon, which the partial-reconfiguration experiments measure.
type Allocator struct {
	total int
	free  []extent // sorted by Start, coalesced
}

// NewAllocator creates an allocator over [0, total) slices.
func NewAllocator(total int) *Allocator {
	if total <= 0 {
		panic(fmt.Sprintf("fabric: allocator needs positive area, got %d", total))
	}
	return &Allocator{total: total, free: []extent{{0, total}}}
}

// Free returns the total unallocated slices (possibly fragmented).
func (a *Allocator) Free() int {
	n := 0
	for _, e := range a.free {
		n += e.Len
	}
	return n
}

// LargestFree returns the size of the largest contiguous free range — the
// biggest region that can actually be allocated right now.
func (a *Allocator) LargestFree() int {
	max := 0
	for _, e := range a.free {
		if e.Len > max {
			max = e.Len
		}
	}
	return max
}

// Fragmentation returns 1 - largestFree/totalFree: 0 when all free space is
// one contiguous block, approaching 1 when free space is shattered. With no
// free space it returns 0.
func (a *Allocator) Fragmentation() float64 {
	free := a.Free()
	if free == 0 {
		return 0
	}
	return 1 - float64(a.LargestFree())/float64(free)
}

// Alloc reserves n contiguous slices first-fit and returns the start
// address. It fails with ErrNoRoom when no contiguous run of n slices
// exists, even if the total free area would suffice (external
// fragmentation).
func (a *Allocator) Alloc(n int) (int, error) {
	if n <= 0 {
		return 0, fmt.Errorf("fabric: allocation of %d slices", n)
	}
	for i, e := range a.free {
		if e.Len < n {
			continue
		}
		start := e.Start
		if e.Len == n {
			a.free = append(a.free[:i], a.free[i+1:]...)
		} else {
			a.free[i] = extent{e.Start + n, e.Len - n}
		}
		return start, nil
	}
	return 0, ErrNoRoom
}

// Release returns [start, start+n) to the free pool, coalescing with
// adjacent free extents. Releasing a range that overlaps free space is a
// programming bug and returns an error.
func (a *Allocator) Release(start, n int) error {
	if n <= 0 || start < 0 || start+n > a.total {
		return fmt.Errorf("fabric: release of invalid range [%d,%d)", start, start+n)
	}
	for _, e := range a.free {
		if start < e.Start+e.Len && e.Start < start+n {
			return fmt.Errorf("fabric: release [%d,%d) overlaps free extent [%d,%d)", start, start+n, e.Start, e.Start+e.Len)
		}
	}
	a.free = append(a.free, extent{start, n})
	sort.Slice(a.free, func(i, j int) bool { return a.free[i].Start < a.free[j].Start })
	// Coalesce neighbours.
	out := a.free[:1]
	for _, e := range a.free[1:] {
		last := &out[len(out)-1]
		if last.Start+last.Len == e.Start {
			last.Len += e.Len
		} else {
			out = append(out, e)
		}
	}
	a.free = out
	return nil
}

// Reset frees the entire address space (what a full reconfiguration does).
func (a *Allocator) Reset() {
	a.free = append(a.free[:0], extent{0, a.total})
}
