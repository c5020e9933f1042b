package fabric

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestAllocatorBasics(t *testing.T) {
	a := NewAllocator(100)
	if a.total != 100 || a.Free() != 100 || a.LargestFree() != 100 {
		t.Fatal("fresh allocator wrong")
	}
	s1, err := a.Alloc(30)
	if err != nil || s1 != 0 {
		t.Fatalf("first alloc = %d, %v", s1, err)
	}
	s2, err := a.Alloc(30)
	if err != nil || s2 != 30 {
		t.Fatalf("second alloc = %d, %v", s2, err)
	}
	if a.Free() != 40 {
		t.Errorf("Free = %d", a.Free())
	}
	if _, err := a.Alloc(50); err == nil {
		t.Error("oversized alloc accepted")
	}
	if _, err := a.Alloc(0); err == nil {
		t.Error("zero alloc accepted")
	}
}

func TestAllocatorExternalFragmentation(t *testing.T) {
	a := NewAllocator(100)
	starts := make([]int, 0, 10)
	for i := 0; i < 10; i++ {
		s, err := a.Alloc(10)
		if err != nil {
			t.Fatal(err)
		}
		starts = append(starts, s)
	}
	// Free every other block: 50 slices free but largest run is 10.
	for i := 0; i < 10; i += 2 {
		if err := a.Release(starts[i], 10); err != nil {
			t.Fatal(err)
		}
	}
	if a.Free() != 50 {
		t.Errorf("Free = %d, want 50", a.Free())
	}
	if a.LargestFree() != 10 {
		t.Errorf("LargestFree = %d, want 10", a.LargestFree())
	}
	if _, err := a.Alloc(20); err == nil {
		t.Error("allocation should fail despite sufficient total free area")
	}
	if frag := a.Fragmentation(); frag != 0.8 {
		t.Errorf("Fragmentation = %v, want 0.8", frag)
	}
}

func TestAllocatorCoalescing(t *testing.T) {
	a := NewAllocator(100)
	s1, _ := a.Alloc(40)
	s2, _ := a.Alloc(40)
	if err := a.Release(s1, 40); err != nil {
		t.Fatal(err)
	}
	if err := a.Release(s2, 40); err != nil {
		t.Fatal(err)
	}
	if a.LargestFree() != 100 {
		t.Errorf("coalescing failed: largest = %d", a.LargestFree())
	}
	if a.Fragmentation() != 0 {
		t.Errorf("Fragmentation = %v, want 0", a.Fragmentation())
	}
}

func TestAllocatorReleaseValidation(t *testing.T) {
	a := NewAllocator(100)
	if err := a.Release(-1, 10); err == nil {
		t.Error("negative start accepted")
	}
	if err := a.Release(95, 10); err == nil {
		t.Error("out-of-range release accepted")
	}
	if err := a.Release(0, 10); err == nil {
		t.Error("double-free (overlapping free space) accepted")
	}
	s, _ := a.Alloc(10)
	if err := a.Release(s, 10); err != nil {
		t.Fatal(err)
	}
	if err := a.Release(s, 10); err == nil {
		t.Error("double release accepted")
	}
}

func TestAllocatorReset(t *testing.T) {
	a := NewAllocator(50)
	a.Alloc(20)
	a.Alloc(20)
	a.Reset()
	if a.Free() != 50 || a.LargestFree() != 50 {
		t.Error("Reset did not restore full space")
	}
}

func TestAllocatorInvariantFreeNeverExceedsTotal(t *testing.T) {
	f := func(seed uint64) bool {
		r := sim.NewRNG(seed)
		a := NewAllocator(1000)
		type block struct{ start, n int }
		var live []block
		for op := 0; op < 200; op++ {
			if r.Float64() < 0.6 || len(live) == 0 {
				n := 1 + r.Intn(200)
				if s, err := a.Alloc(n); err == nil {
					live = append(live, block{s, n})
				}
			} else {
				i := r.Intn(len(live))
				b := live[i]
				if err := a.Release(b.start, b.n); err != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
			}
			used := 0
			for _, b := range live {
				used += b.n
			}
			if a.Free()+used != 1000 {
				return false
			}
			if a.LargestFree() > a.Free() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestNewAllocatorPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-positive area did not panic")
		}
	}()
	NewAllocator(0)
}

// TestReleaseAllocs pins that returning a range to the free list
// allocates nothing once the list has room: the range is inserted at its
// sorted position, not appended and sorted.
func TestReleaseAllocs(t *testing.T) {
	a := NewAllocator(100)
	starts := make([]int, 0, 10)
	for i := 0; i < 10; i++ {
		s, err := a.Alloc(10)
		if err != nil {
			t.Fatal(err)
		}
		starts = append(starts, s)
	}
	// Free every other block. The cycle below takes the first free block
	// and returns it, which touches no other extent, so the list only
	// loses and regains one entry and never regrows.
	for i := 0; i < 10; i += 2 {
		if err := a.Release(starts[i], 10); err != nil {
			t.Fatal(err)
		}
	}
	cycle := func() {
		s, err := a.Alloc(10)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Release(s, 10); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Errorf("an alloc and release allocate %.1f times, want 0", avg)
	}
	if a.Free() != 50 || a.LargestFree() != 10 {
		t.Errorf("free %d, largest %d: the cycle changed the free list", a.Free(), a.LargestFree())
	}
}
