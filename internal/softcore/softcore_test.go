package softcore

import (
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/capability"
	"repro/internal/fabric"
	"repro/internal/pe"
)

func TestRVEXPresets(t *testing.T) {
	for _, iw := range []int{2, 4, 8} {
		c, err := RVEX(iw, 1)
		if err != nil {
			t.Fatalf("RVEX(%d,1): %v", iw, err)
		}
		if c.Config().Caps.IssueWidth != iw {
			t.Errorf("issue width = %d", c.Config().Caps.IssueWidth)
		}
		if c.Kind() != capability.KindSoftcore {
			t.Error("kind")
		}
		if want := "softcore-rvex-vliw" + strconv.Itoa(iw); c.design != want {
			t.Errorf("design = %q, want %q", c.design, want)
		}
		if got, want := c.Caps().String(), c.Config().Caps.Set().String(); got != want {
			t.Errorf("caps = %s, want %s", got, want)
		}
	}
	if _, err := RVEX(3, 1); err == nil {
		t.Error("invalid issue width accepted")
	}
	if _, err := RVEX(4, 0); err == nil {
		t.Error("zero clusters accepted")
	}
	if _, err := RVEX(4, 5); err == nil {
		t.Error("five clusters accepted")
	}
}

func TestAreaGrowsWithIssueWidth(t *testing.T) {
	c2, _ := RVEX(2, 1)
	c4, _ := RVEX(4, 1)
	c8, _ := RVEX(8, 1)
	a2, a4, a8 := c2.Config().Slices(), c4.Config().Slices(), c8.Config().Slices()
	if !(a2 < a4 && a4 < a8) {
		t.Errorf("area not monotone in issue width: %d, %d, %d", a2, a4, a8)
	}
	// The 4-issue core should land in the published ρ-VEX ballpark (5-9 k).
	if a4 < 4000 || a4 > 10000 {
		t.Errorf("4-issue area = %d slices, outside plausible range", a4)
	}
}

func TestAreaGrowsWithClusters(t *testing.T) {
	c1, _ := RVEX(4, 1)
	c2, _ := RVEX(4, 2)
	if c2.Config().Slices() <= c1.Config().Slices() {
		t.Error("extra cluster should cost area")
	}
}

func TestEffectiveMIPSMonotone(t *testing.T) {
	c2, _ := RVEX(2, 1)
	c8, _ := RVEX(8, 1)
	if c8.Config().EffectiveMIPS() <= c2.Config().EffectiveMIPS() {
		t.Error("wider issue should raise effective MIPS")
	}
	c41, _ := RVEX(4, 1)
	c42, _ := RVEX(4, 2)
	if c42.Config().EffectiveMIPS() <= c41.Config().EffectiveMIPS() {
		t.Error("extra cluster should raise effective MIPS")
	}
}

func TestEstimateSecondsParallelSensitivity(t *testing.T) {
	c, _ := RVEX(8, 1)
	seq, err := c.EstimateSeconds(pe.Work{MInstructions: 1000, ParallelFraction: 0})
	if err != nil {
		t.Fatal(err)
	}
	par, err := c.EstimateSeconds(pe.Work{MInstructions: 1000, ParallelFraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	if par >= seq {
		t.Errorf("parallel work (%v) should beat sequential (%v) on an 8-issue VLIW", par, seq)
	}
	if _, err := c.EstimateSeconds(pe.Work{}); err == nil {
		t.Error("invalid work accepted")
	}
}

func TestSoftcoreSlowerThanHardCPU(t *testing.T) {
	// A 150 MHz soft-core must be far slower than a 42,000 MIPS Xeon —
	// the paper's "low-power, low-frequency, more flexible, less
	// performance" trade-off.
	c, _ := RVEX(4, 1)
	if c.Config().EffectiveMIPS() > 2000 {
		t.Errorf("soft-core effective MIPS = %v, implausibly fast", c.Config().EffectiveMIPS())
	}
}

func TestBitstreamSynthesis(t *testing.T) {
	c, _ := RVEX(4, 1)
	dev, err := fabric.LookupDevice("XC5VLX110T")
	if err != nil {
		t.Fatal(err)
	}
	bs, err := c.Bitstream(dev)
	if err != nil {
		t.Fatal(err)
	}
	if !bs.Partial {
		t.Error("soft-core bitstream should be partial (region-sized)")
	}
	if bs.Slices != c.Config().Slices() {
		t.Errorf("bitstream slices = %d, want %d", bs.Slices, c.Config().Slices())
	}
	if bs.Device != "XC5VLX110T" {
		t.Errorf("bitstream device = %s", bs.Device)
	}
	if again, _ := c.Bitstream(dev); again != bs {
		t.Error("second request rebuilt the image")
	}
	// A device without partial reconfiguration loads the full image.
	dev.PartialRecon = false
	full, err := c.Bitstream(dev)
	if err != nil {
		t.Fatal(err)
	}
	if full.Partial || full.SizeBytes != dev.BitstreamBytes || full.ID == bs.ID {
		t.Errorf("full-device image = %v", full)
	}
}

func TestBitstreamTooBigForDevice(t *testing.T) {
	c, _ := RVEX(8, 4)
	small, err := fabric.LookupDevice("XC5VLX30")
	if err != nil {
		t.Fatal(err)
	}
	if c.Config().Slices() <= small.Slices {
		t.Skip("preset unexpectedly fits the smallest device")
	}
	if _, err := c.Bitstream(small); err == nil {
		t.Error("oversized core accepted")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err == nil {
		t.Error("empty config accepted")
	}
	c, _ := RVEX(4, 1)
	cfg := c.Config()
	cfg.ClockMHz = 0
	if err := cfg.Validate(); err == nil {
		t.Error("zero clock accepted")
	}
	if _, err := New(cfg); err == nil {
		t.Error("New accepted invalid config")
	}
}

func TestStringMentionsISA(t *testing.T) {
	c, _ := RVEX(4, 1)
	if !strings.Contains(c.String(), "rvex") {
		t.Errorf("String = %q", c.String())
	}
}

// TestBitstreamSharedAcrossGoroutines pins the image memo under concurrent
// use: cores are shared by every sweep worker, and each must get the one
// image per device and kind.
func TestBitstreamSharedAcrossGoroutines(t *testing.T) {
	c, _ := RVEX(2, 1)
	var devs []fabric.Device
	for _, name := range []string{"XC5VLX110T", "XC5VLX330T", "XC4VLX60"} {
		dev, err := fabric.LookupDevice(name)
		if err != nil {
			t.Fatal(err)
		}
		devs = append(devs, dev)
	}
	got := make([][]*fabric.Bitstream, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, dev := range devs {
				bs, err := c.Bitstream(dev)
				if err != nil {
					t.Error(err)
					return
				}
				got[g] = append(got[g], bs)
			}
		}(g)
	}
	wg.Wait()
	for g := range got {
		for i := range devs {
			if len(got[g]) != len(devs) || got[g][i] != got[0][i] {
				t.Fatalf("goroutine %d got a different image for %s", g, devs[i].FPGACaps.Device)
			}
		}
	}
}
