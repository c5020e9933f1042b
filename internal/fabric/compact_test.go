package fabric

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

func TestCompactConsolidatesFreeSpace(t *testing.T) {
	f, err := NewByName("XC5VLX110T") // 17,280 slices
	if err != nil {
		t.Fatal(err)
	}
	dev := f.Device()
	// Create a checkerboard: allocate four 4,000-slice regions, evict two.
	var regions []*Region
	for i := 0; i < 4; i++ {
		bs := PartialBitstream(idFor(i), "k", dev, 4000)
		r, _, err := f.ConfigurePartial(bs)
		if err != nil {
			t.Fatal(err)
		}
		regions = append(regions, r)
	}
	f.Evict(regions[0])
	f.Evict(regions[2])
	// 9,280 free but fragmented: 4,000 + 4,000 + 1,280.
	if f.State().LargestFree >= 8000 {
		t.Fatalf("setup failed: largest free = %d", f.State().LargestFree)
	}
	moved, delay, err := f.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 || delay <= 0 {
		t.Fatalf("compaction did nothing: moved=%d delay=%v", moved, delay)
	}
	st := f.State()
	if st.LargestFree != st.AvailableSlices {
		t.Errorf("free space still fragmented: largest %d of %d", st.LargestFree, st.AvailableSlices)
	}
	if len(st.Configurations) != 2 {
		t.Errorf("compaction lost configurations: %v", st.Configurations)
	}
	// An 8,000-slice allocation now fits.
	big := PartialBitstream("big", "k", dev, 8000)
	if _, _, err := f.ConfigurePartial(big); err != nil {
		t.Errorf("post-compaction placement failed: %v", err)
	}
}

func idFor(i int) string {
	return string(rune('a'+i)) + "-bs"
}

func TestCompactPinsBusyRegions(t *testing.T) {
	f, _ := NewByName("XC5VLX110T")
	dev := f.Device()
	r1, _, _ := f.ConfigurePartial(PartialBitstream("a", "k", dev, 3000))
	r2, _, _ := f.ConfigurePartial(PartialBitstream("b", "k", dev, 3000))
	r3, _, _ := f.ConfigurePartial(PartialBitstream("c", "k", dev, 3000))
	f.Evict(r1)
	f.Acquire(r2)
	busyStart := r2.Start
	moved, _, err := f.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if r2.Start != busyStart {
		t.Error("busy region moved")
	}
	if moved == 0 {
		t.Error("idle region behind the busy one should have moved")
	}
	if r3.Start >= busyStart+3000+3000 {
		t.Errorf("r3 not repacked: start=%d", r3.Start)
	}
}

func TestCompactNoOpWhenDense(t *testing.T) {
	f, _ := NewByName("XC5VLX110T")
	dev := f.Device()
	f.ConfigurePartial(PartialBitstream("a", "k", dev, 3000))
	f.ConfigurePartial(PartialBitstream("b", "k", dev, 3000))
	moved, delay, err := f.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if moved != 0 || delay != 0 {
		t.Errorf("dense fabric compacted anyway: %d, %v", moved, delay)
	}
}

func TestSecondaryResourceAccounting(t *testing.T) {
	f, _ := NewByName("XC5VLX110T") // 5,328 Kb BRAM, 64 DSP
	dev := f.Device()
	bs1 := PartialBitstream("m1", "k", dev, 1000)
	bs1.BRAMKb = 4000
	bs1.DSPSlices = 40
	if _, _, err := f.ConfigurePartial(bs1); err != nil {
		t.Fatal(err)
	}
	st := f.State()
	if st.AvailableBRAMKb != 1328 || st.AvailableDSP != 24 {
		t.Errorf("availability = %d Kb / %d DSP", st.AvailableBRAMKb, st.AvailableDSP)
	}
	// A second BRAM-hungry configuration must be refused even though
	// plenty of slices remain.
	bs2 := PartialBitstream("m2", "k", dev, 1000)
	bs2.BRAMKb = 2000
	if _, _, err := f.ConfigurePartial(bs2); err == nil {
		t.Error("BRAM overcommit accepted")
	}
	bs3 := PartialBitstream("m3", "k", dev, 1000)
	bs3.DSPSlices = 30
	if _, _, err := f.ConfigurePartial(bs3); err == nil {
		t.Error("DSP overcommit accepted")
	}
	// Evicting the first frees the budget.
	r := f.FindLoaded("m1")
	if err := f.Evict(r); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.ConfigurePartial(bs2); err != nil {
		t.Errorf("post-evict placement failed: %v", err)
	}
}

func TestFullReconfigResetsSecondaryBudget(t *testing.T) {
	f, _ := NewByName("XC5VLX110T")
	dev := f.Device()
	p := PartialBitstream("p", "k", dev, 1000)
	p.BRAMKb = 5000
	if _, _, err := f.ConfigurePartial(p); err != nil {
		t.Fatal(err)
	}
	full := FullBitstream("f", "k", dev, 2000)
	full.BRAMKb = 5000 // fits only if the partial's budget was reclaimed
	if _, _, err := f.ConfigureFull(full); err != nil {
		t.Errorf("full reconfiguration did not reset secondary budget: %v", err)
	}
	if f.State().AvailableBRAMKb != dev.BRAMKb-5000 {
		t.Errorf("available BRAM = %d", f.State().AvailableBRAMKb)
	}
}

// TestCompactProperties drives fabrics through seeded random configure,
// acquire, release and evict sequences and compacts after every step.
// Each compaction must keep busy regions at their addresses, regions in
// ID order and the free area unchanged, leave no two regions overlapping,
// and move no idle region up.
func TestCompactProperties(t *testing.T) {
	totalMoved := 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f, err := NewByName("XC5VLX110T")
		if err != nil {
			t.Fatal(err)
		}
		dev := f.Device()
		for step := 0; step < 150; step++ {
			regions := f.Regions()
			pick := func() *Region { return regions[rng.Intn(len(regions))] }
			var err error
			switch op := rng.Intn(4); {
			case op == 0 || len(regions) == 0:
				bs := PartialBitstream(fmt.Sprintf("c%d", step), "k", dev, 300+rng.Intn(5000))
				if _, _, err = f.ConfigurePartial(bs); errors.Is(err, ErrNoRoom) {
					err = nil
				}
			case op == 1:
				if r := pick(); !r.Busy {
					err = f.Acquire(r)
				}
			case op == 2:
				if r := pick(); r.Busy {
					err = f.ReleaseRegion(r)
				}
			default:
				if r := pick(); !r.Busy {
					err = f.Evict(r)
				}
			}
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}

			before := make(map[*Region]int)
			for _, r := range f.Regions() {
				before[r] = r.Start
			}
			free := f.State().AvailableSlices
			moved, _, err := f.Compact()
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			totalMoved += moved
			after := f.Regions()
			if got := f.State().AvailableSlices; got != free {
				t.Fatalf("seed %d step %d: free area %d, was %d", seed, step, got, free)
			}
			occupied := 0
			for i, r := range after {
				occupied += r.Slices
				if i > 0 && after[i-1].ID >= r.ID {
					t.Fatalf("seed %d step %d: regions out of ID order", seed, step)
				}
				if r.Busy && r.Start != before[r] {
					t.Fatalf("seed %d step %d: busy region %d moved %d -> %d", seed, step, r.ID, before[r], r.Start)
				}
				if r.Start > before[r] {
					t.Fatalf("seed %d step %d: idle region %d moved up %d -> %d", seed, step, r.ID, before[r], r.Start)
				}
				for _, o := range after[:i] {
					if r.Start < o.Start+o.Slices && o.Start < r.Start+r.Slices {
						t.Fatalf("seed %d step %d: regions %d and %d overlap", seed, step, o.ID, r.ID)
					}
				}
			}
			if occupied+free != dev.Slices {
				t.Fatalf("seed %d step %d: %d slices occupied and %d free on a %d-slice device", seed, step, occupied, free, dev.Slices)
			}
		}
	}
	if totalMoved == 0 {
		t.Fatal("no compaction moved a region: the sequences exercise nothing")
	}
}
