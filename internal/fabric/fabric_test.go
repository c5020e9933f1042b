package fabric

import (
	"math"
	"strings"
	"testing"
)

func lx155(t *testing.T) *Fabric {
	t.Helper()
	f, err := NewByName("XC5VLX155T")
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestConfigDelay(t *testing.T) {
	// 4 MB at 400 MB/s = 10 ms.
	d := ConfigDelay(4e6, 400)
	if math.Abs(float64(d)-0.01) > 1e-12 {
		t.Errorf("delay = %v, want 10ms", d)
	}
	if !ConfigDelay(1, 0).IsInf() {
		t.Error("zero bandwidth should give infinite delay")
	}
}

func TestFullReconfiguration(t *testing.T) {
	f := lx155(t)
	dev := f.Device()
	bs := FullBitstream("bs-a", "designA", dev, 10000)
	r, delay, err := f.ConfigureFull(bs)
	if err != nil {
		t.Fatal(err)
	}
	if delay <= 0 {
		t.Error("full reconfig should take time")
	}
	wantDelay := ConfigDelay(dev.BitstreamBytes, dev.ReconfigMBps)
	if delay != wantDelay {
		t.Errorf("delay = %v, want %v", delay, wantDelay)
	}
	st := f.State()
	if len(st.Configurations) != 1 || st.Configurations[0] != "bs-a" {
		t.Errorf("state = %+v", st)
	}
	if st.AvailableSlices != dev.Slices-10000 {
		t.Errorf("available = %d", st.AvailableSlices)
	}
	// A second full reconfiguration replaces the first entirely.
	bs2 := FullBitstream("bs-b", "designB", dev, 5000)
	_, delay, err = f.ConfigureFull(bs2)
	if err != nil {
		t.Fatal(err)
	}
	if delay != wantDelay {
		t.Errorf("second full reconfig delay = %v, want %v", delay, wantDelay)
	}
	st = f.State()
	if len(st.Configurations) != 1 || st.Configurations[0] != "bs-b" {
		t.Errorf("full reconfig did not wipe: %+v", st)
	}
	_ = r
}

func TestFullReconfigurationRejectsBusy(t *testing.T) {
	f := lx155(t)
	bs := FullBitstream("bs-a", "d", f.Device(), 100)
	r, _, err := f.ConfigureFull(bs)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Acquire(r); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.ConfigureFull(FullBitstream("bs-b", "d", f.Device(), 100)); err == nil {
		t.Error("full reconfiguration over a busy region accepted")
	}
}

func TestPartialReconfiguration(t *testing.T) {
	f := lx155(t)
	dev := f.Device()
	bs1 := PartialBitstream("p1", "kernelA", dev, 8000)
	bs2 := PartialBitstream("p2", "kernelB", dev, 8000)
	r1, d1, err := f.ConfigurePartial(bs1)
	if err != nil {
		t.Fatal(err)
	}
	r2, _, err := f.ConfigurePartial(bs2)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Start == r2.Start {
		t.Error("regions overlap")
	}
	// Partial delay scales with region size, far below a full-device load.
	full := ConfigDelay(dev.BitstreamBytes, dev.ReconfigMBps)
	if d1 >= full {
		t.Errorf("partial delay %v not below full %v", d1, full)
	}
	st := f.State()
	if len(st.Configurations) != 2 {
		t.Errorf("want 2 resident configurations: %+v", st)
	}
}

func TestPartialRequiresSupport(t *testing.T) {
	f, err := NewByName("XC4VLX60") // catalog marks Virtex-4 without PR
	if err != nil {
		t.Fatal(err)
	}
	bs := PartialBitstream("p", "k", f.Device(), 100)
	if _, _, err := f.ConfigurePartial(bs); err == nil {
		t.Error("partial reconfiguration accepted on non-PR device")
	}
}

func TestBitstreamDeviceMismatch(t *testing.T) {
	f := lx155(t)
	other, _ := LookupDevice("XC5VLX330T")
	bs := FullBitstream("x", "d", other, 100)
	if _, _, err := f.ConfigureFull(bs); err == nil {
		t.Error("cross-device bitstream accepted")
	}
	p := PartialBitstream("y", "d", other, 100)
	if _, _, err := f.ConfigurePartial(p); err == nil {
		t.Error("cross-device partial bitstream accepted")
	}
}

func TestKindMismatchFullVsPartial(t *testing.T) {
	f := lx155(t)
	full := FullBitstream("f", "d", f.Device(), 100)
	part := PartialBitstream("p", "d", f.Device(), 100)
	if _, _, err := f.ConfigureFull(part); err == nil {
		t.Error("partial bitstream accepted by ConfigureFull")
	}
	if _, _, err := f.ConfigurePartial(full); err == nil {
		t.Error("full bitstream accepted by ConfigurePartial")
	}
}

func TestOversizedDesignRejected(t *testing.T) {
	f := lx155(t)
	bs := FullBitstream("f", "d", f.Device(), f.Device().Slices+1)
	if _, _, err := f.ConfigureFull(bs); err == nil {
		t.Error("oversized design accepted")
	}
}

func TestAcquireReleaseEvict(t *testing.T) {
	f := lx155(t)
	bs := PartialBitstream("p", "k", f.Device(), 1000)
	r, _, err := f.ConfigurePartial(bs)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Acquire(r); err != nil {
		t.Fatal(err)
	}
	if err := f.Acquire(r); err == nil {
		t.Error("double acquire accepted")
	}
	if err := f.Evict(r); err == nil {
		t.Error("evicting busy region accepted")
	}
	if err := f.ReleaseRegion(r); err != nil {
		t.Fatal(err)
	}
	if err := f.ReleaseRegion(r); err == nil {
		t.Error("double release accepted")
	}
	if err := f.Evict(r); err != nil {
		t.Fatal(err)
	}
	if err := f.Evict(r); err == nil {
		t.Error("double evict accepted")
	}
	if f.State().AvailableSlices != f.Device().Slices {
		t.Error("eviction did not free area")
	}
}

func TestFindLoadedReuse(t *testing.T) {
	f := lx155(t)
	bs := PartialBitstream("p", "k", f.Device(), 1000)
	r, _, err := f.ConfigurePartial(bs)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.FindLoaded("p"); got != r {
		t.Error("FindLoaded missed resident idle region")
	}
	f.Acquire(r)
	if got := f.FindLoaded("p"); got != nil {
		t.Error("FindLoaded returned busy region")
	}
	if got := f.FindLoaded("missing"); got != nil {
		t.Error("FindLoaded invented a region")
	}
}

func TestStateString(t *testing.T) {
	f := lx155(t)
	if s := f.State().String(); !strings.Contains(s, "not configured") {
		t.Errorf("idle state = %q", s)
	}
	bs := PartialBitstream("p", "k", f.Device(), 1000)
	f.ConfigurePartial(bs)
	if s := f.State().String(); !strings.Contains(s, "1 configuration") {
		t.Errorf("configured state = %q", s)
	}
}

func TestRegionString(t *testing.T) {
	f := lx155(t)
	bs := PartialBitstream("p", "kern", f.Device(), 1000)
	r, _, _ := f.ConfigurePartial(bs)
	if !strings.Contains(r.String(), "idle") || !strings.Contains(r.String(), "kern") {
		t.Errorf("region String = %q", r.String())
	}
	f.Acquire(r)
	if !strings.Contains(r.String(), "busy") {
		t.Errorf("busy region String = %q", r.String())
	}
}

func TestBitstreamValidate(t *testing.T) {
	var nilBS *Bitstream
	if err := nilBS.Validate(); err == nil {
		t.Error("nil bitstream accepted")
	}
	bad := []Bitstream{
		{},
		{ID: "x"},
		{ID: "x", Device: "d"},
		{ID: "x", Device: "d", Slices: 10},
	}
	for i := range bad {
		if err := bad[i].Validate(); err == nil {
			t.Errorf("bad bitstream %d accepted", i)
		}
	}
	if s := (&Bitstream{ID: "a", Design: "d", Device: "dev", Slices: 1, SizeBytes: 1}).String(); !strings.Contains(s, "full") {
		t.Errorf("String = %q", s)
	}
}

func TestConfigDelayMatchesBandwidth(t *testing.T) {
	// Virtex-6 configures twice as fast per byte as Virtex-5 in the catalog.
	v5, _ := LookupDevice("XC5VLX330T")
	v6, _ := LookupDevice("XC6VLX365T")
	d5 := ConfigDelay(1e6, v5.ReconfigMBps)
	d6 := ConfigDelay(1e6, v6.ReconfigMBps)
	if d6 >= d5 {
		t.Errorf("v6 delay %v should be below v5 %v", d6, d5)
	}
}
