package hdl

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/capability"
	"repro/internal/fabric"
	"repro/internal/pe"
)

func TestLibraryDesignsValid(t *testing.T) {
	lib := Library()
	if len(lib) < 6 {
		t.Fatalf("library has %d designs", len(lib))
	}
	for _, d := range lib {
		if err := d.Validate(); err != nil {
			t.Errorf("library design %s invalid: %v", d.Name, err)
		}
		if d.String() == "" {
			t.Error("empty String")
		}
	}
	for i := 1; i < len(lib); i++ {
		if lib[i-1].Name >= lib[i].Name {
			t.Error("library not sorted")
		}
	}
}

func TestLookupIP(t *testing.T) {
	d, err := LookupIP("Pairalign-Core")
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "pairalign-core" {
		t.Errorf("lookup = %s", d.Name)
	}
	if _, err := LookupIP("warp-drive"); err == nil {
		t.Error("unknown IP accepted")
	}
}

func TestDesignValidate(t *testing.T) {
	var nilD *Design
	if err := nilD.Validate(); err == nil {
		t.Error("nil design accepted")
	}
	bad := []*Design{
		{},
		{Name: "x"},
		{Name: "x", Language: "SystemC", AccelFactor: 1, ReferenceClockMHz: 1},
		{Name: "x", Language: VHDL, ReferenceClockMHz: 1},
		{Name: "x", Language: VHDL, AccelFactor: 1},
		{Name: "x", Language: VHDL, AccelFactor: 1, ReferenceClockMHz: 1}, // bad metrics
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("bad design %d accepted", i)
		}
	}
}

func TestNewToolchainValidation(t *testing.T) {
	if _, err := NewToolchain("", "Virtex-5"); err == nil {
		t.Error("empty vendor accepted")
	}
	if _, err := NewToolchain("ise"); err == nil {
		t.Error("no families accepted")
	}
	tc, err := NewToolchain("ise", "Virtex-5", "Virtex-6")
	if err != nil {
		t.Fatal(err)
	}
	if !tc.Supports("virtex-5") || tc.Supports("Stratix") {
		t.Error("Supports broken")
	}
}

func TestSynthesizePairalignMatchesPaperArea(t *testing.T) {
	tc, _ := NewToolchain("ise", "Virtex-5")
	d, _ := LookupIP("pairalign-core")
	dev, _ := fabric.LookupDevice("XC5VLX220T")
	res, err := tc.Synthesize(d, dev, true)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Quipu estimate: 30,790 slices.
	if res.Area.Slices < 30700 || res.Area.Slices > 30900 {
		t.Errorf("pairalign area = %d, want ≈30,790", res.Area.Slices)
	}
	if res.Bitstream == nil || !res.Bitstream.Partial {
		t.Error("expected a partial bitstream")
	}
	if res.Bitstream.Device != "XC5VLX220T" {
		t.Errorf("bitstream device = %s", res.Bitstream.Device)
	}
	if res.ToolSeconds < 60 {
		t.Errorf("tool runtime = %vs, implausibly fast for a 30k-slice design", res.ToolSeconds)
	}
	if res.ClockMHz <= 0 {
		t.Error("no achieved clock")
	}
}

func TestSynthesizeRejectsUnsupportedFamily(t *testing.T) {
	tc, _ := NewToolchain("ise", "Virtex-5")
	d, _ := LookupIP("fir64")
	dev, _ := fabric.LookupDevice("XC6VLX365T")
	if _, err := tc.Synthesize(d, dev, true); err == nil {
		t.Error("unsupported family accepted")
	}
}

func TestSynthesizeRejectsOversizedDesign(t *testing.T) {
	tc, _ := NewToolchain("ise", "Virtex-5")
	d, _ := LookupIP("pairalign-core") // 30,790 slices
	small, _ := fabric.LookupDevice("XC5VLX110T")
	if _, err := tc.Synthesize(d, small, true); err == nil {
		t.Error("30k-slice design accepted on 17k-slice device")
	}
}

func TestSynthesizeRejectsStreaming(t *testing.T) {
	tc, _ := NewToolchain("ise", "Virtex-5")
	d := *mustIP(t, "fir64")
	d.Streaming = true
	dev, _ := fabric.LookupDevice("XC5VLX110T")
	if _, err := tc.Synthesize(&d, dev, true); err == nil {
		t.Error("streaming design accepted (paper defers streaming to future work)")
	}
}

func mustIP(t *testing.T, name string) *Design {
	t.Helper()
	d, err := LookupIP(name)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestFullVsPartialBitstreamSizes(t *testing.T) {
	tc, _ := NewToolchain("ise", "Virtex-5")
	d := mustIP(t, "fir64")
	dev, _ := fabric.LookupDevice("XC5VLX330T")
	full, err := tc.Synthesize(d, dev, false)
	if err != nil {
		t.Fatal(err)
	}
	part, err := tc.Synthesize(d, dev, true)
	if err != nil {
		t.Fatal(err)
	}
	if full.Bitstream.SizeBytes <= part.Bitstream.SizeBytes {
		t.Error("full bitstream should be larger than a partial region image")
	}
	if full.Bitstream.ID == part.Bitstream.ID {
		t.Error("full and partial bitstreams must have distinct IDs")
	}
}

// TestSynthesizeShared pins the toolchain's memo: callers that
// synthesize one design for one device and kind at the same time all get
// one result back, while another kind, or another design that only
// shares the name, gets a result of its own.
func TestSynthesizeShared(t *testing.T) {
	tc, err := NewToolchain("test", "Virtex-5")
	if err != nil {
		t.Fatal(err)
	}
	d, err := LookupIP("fir64")
	if err != nil {
		t.Fatal(err)
	}
	dev, err := fabric.LookupDevice("XC5VLX110T")
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*SynthesisResult, 8)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			res, err := tc.Synthesize(d, dev, true)
			if err != nil {
				t.Error(err)
			}
			results[i] = res
		}()
	}
	close(start)
	wg.Wait()
	for i, res := range results {
		if res == nil || res != results[0] {
			t.Fatalf("caller %d got %p, caller 0 %p: want one result", i, res, results[0])
		}
	}
	if full, err := tc.Synthesize(d, dev, false); err != nil || full == results[0] {
		t.Errorf("the full bitstream shares the partial one's result (%v)", err)
	}
	twin := *d
	twin.AccelFactor *= 2
	if res, err := tc.Synthesize(&twin, dev, true); err != nil || res == results[0] {
		t.Errorf("a design sharing the name %s shares its result (%v)", d.Name, err)
	}
}

func TestBitstreamIDDeterministic(t *testing.T) {
	a := BitstreamID("FIR64", "xc5vlx110t", true)
	b := BitstreamID("fir64", "XC5VLX110T", true)
	if a != b {
		t.Errorf("IDs differ: %s vs %s", a, b)
	}
	if !strings.Contains(a, "#part") {
		t.Errorf("ID = %s", a)
	}
}

func TestAcceleratorEstimate(t *testing.T) {
	d := mustIP(t, "aes128")
	acc := &Accelerator{Design: d, ClockMHz: d.ReferenceClockMHz}
	if acc.Kind() != capability.KindFPGA {
		t.Error("kind")
	}
	w := pe.Work{MInstructions: 10000, ParallelFraction: 1}
	hw, err := acc.EstimateSeconds(w)
	if err != nil {
		t.Fatal(err)
	}
	// At the reference clock a fully parallel task should run AccelFactor
	// times faster than the reference grid CPU.
	ref := w.MInstructions / pe.ReferenceMIPS
	if ratio := ref / hw; ratio < d.AccelFactor*0.99 || ratio > d.AccelFactor*1.01 {
		t.Errorf("speedup = %v, want ≈%v", ratio, d.AccelFactor)
	}
	if _, err := acc.EstimateSeconds(pe.Work{}); err == nil {
		t.Error("invalid work accepted")
	}
	empty := &Accelerator{}
	if _, err := empty.EstimateSeconds(w); err == nil {
		t.Error("unsynthesized accelerator accepted")
	}
}

func TestSerialFractionLimitsAccelerator(t *testing.T) {
	d := mustIP(t, "aes128")
	acc := &Accelerator{Design: d, ClockMHz: d.ReferenceClockMHz}
	half, _ := acc.EstimateSeconds(pe.Work{MInstructions: 10000, ParallelFraction: 0.5})
	full, _ := acc.EstimateSeconds(pe.Work{MInstructions: 10000, ParallelFraction: 1})
	if half <= full {
		t.Error("serial fraction should slow the accelerator")
	}
}

func TestEstimateArea(t *testing.T) {
	tc, _ := NewToolchain("ise", "Virtex-5")
	d := mustIP(t, "malign-core")
	area, err := tc.EstimateArea(d)
	if err != nil {
		t.Fatal(err)
	}
	if area.Slices < 18600 || area.Slices > 18800 {
		t.Errorf("malign area = %d, want ≈18,707", area.Slices)
	}
	if _, err := tc.EstimateArea(&Design{}); err == nil {
		t.Error("invalid design accepted")
	}
}
