package sched

import (
	"errors"
	"testing"

	"repro/internal/capability"
	"repro/internal/node"
	"repro/internal/rms"
)

// optFor builds an Option over a freshly created element.
func optFor(t *testing.T, device string, slices int, loaded bool, exec, reconfig, transfer float64) Option {
	t.Helper()
	n, err := node.New("N")
	if err != nil {
		t.Fatal(err)
	}
	var elem *node.Element
	if device == "" {
		elem, err = n.AddGPP(capability.GPPCaps{CPUType: "x", MIPS: 10000, Cores: 2})
	} else {
		elem, err = n.AddRPE(device)
	}
	if err != nil {
		t.Fatal(err)
	}
	return Option{
		Cand:            rms.Candidate{Node: n, Elem: elem, Slices: slices, AlreadyLoaded: loaded},
		ExecSeconds:     exec,
		ReconfigSeconds: reconfig,
		TransferSeconds: transfer,
	}
}

func TestTotalSeconds(t *testing.T) {
	o := Option{ExecSeconds: 1, ReconfigSeconds: 2, TransferSeconds: 3, SynthesisSeconds: 4}
	if o.TotalSeconds() != 10 {
		t.Errorf("total = %v", o.TotalSeconds())
	}
}

func TestFirstFit(t *testing.T) {
	if (FirstFit{}).Choose(nil) != -1 {
		t.Error("empty should defer")
	}
	opts := []Option{
		optFor(t, "XC5VLX330T", 100, false, 10, 5, 1),
		optFor(t, "XC5VLX110T", 100, false, 1, 0, 0),
	}
	if (FirstFit{}).Choose(opts) != 0 {
		t.Error("first-fit must take index 0")
	}
}

func TestBestFitArea(t *testing.T) {
	opts := []Option{
		optFor(t, "XC5VLX330T", 10000, false, 1, 0, 0), // waste 41,840
		optFor(t, "XC5VLX110T", 10000, false, 9, 9, 9), // waste 7,280 ← tightest
		optFor(t, "XC5VLX155T", 10000, false, 1, 0, 0), // waste 14,320
	}
	if got := (BestFitArea{}).Choose(opts); got != 1 {
		t.Errorf("best-fit = %d, want 1", got)
	}
	if (BestFitArea{}).Choose(nil) != -1 {
		t.Error("empty should defer")
	}
	// GPP-only options fall back to first.
	gppOpts := []Option{optFor(t, "", 0, false, 5, 0, 0)}
	if (BestFitArea{}).Choose(gppOpts) != 0 {
		t.Error("GPP fallback broken")
	}
}

func TestReconfigAwareMinimizesTotalTime(t *testing.T) {
	opts := []Option{
		optFor(t, "XC5VLX330T", 100, false, 1, 10, 1), // total 12
		optFor(t, "XC5VLX110T", 100, true, 5, 0, 1),   // total 6 ← best
		optFor(t, "XC5VLX155T", 100, false, 3, 5, 1),  // total 9
	}
	if got := (ReconfigAware{}).Choose(opts); got != 1 {
		t.Errorf("reconfig-aware = %d, want 1", got)
	}
	if (ReconfigAware{}).Choose(nil) != -1 {
		t.Error("empty should defer")
	}
}

func TestReconfigAwareTieBreaksOnResidency(t *testing.T) {
	opts := []Option{
		optFor(t, "XC5VLX330T", 100, false, 5, 0, 1),
		optFor(t, "XC5VLX110T", 100, true, 5, 0, 1), // same total, loaded
	}
	if got := (ReconfigAware{}).Choose(opts); got != 1 {
		t.Errorf("tie-break = %d, want the resident configuration", got)
	}
}

func TestReuseFirst(t *testing.T) {
	opts := []Option{
		optFor(t, "XC5VLX330T", 100, false, 1, 0, 0), // fastest but cold
		optFor(t, "XC5VLX110T", 100, true, 50, 0, 0), // resident but slow
	}
	if got := (ReuseFirst{}).Choose(opts); got != 1 {
		t.Errorf("reuse-first = %d, want the resident one", got)
	}
	// Without any resident option it behaves like reconfig-aware.
	cold := []Option{
		optFor(t, "XC5VLX330T", 100, false, 9, 9, 9),
		optFor(t, "XC5VLX110T", 100, false, 1, 1, 1),
	}
	if got := (ReuseFirst{}).Choose(cold); got != 1 {
		t.Errorf("cold reuse-first = %d", got)
	}
}

func TestGPPOnlyRefusesHardware(t *testing.T) {
	hw := []Option{optFor(t, "XC5VLX330T", 100, true, 1, 0, 0)}
	if (GPPOnly{}).Choose(hw) != -1 {
		t.Error("gpp-only accepted an RPE")
	}
	mixed := []Option{
		optFor(t, "XC5VLX330T", 100, true, 1, 0, 0),
		optFor(t, "", 0, false, 7, 0, 0),
		optFor(t, "", 0, false, 3, 0, 0),
	}
	if got := (GPPOnly{}).Choose(mixed); got != 2 {
		t.Errorf("gpp-only = %d, want the faster GPP", got)
	}
}

func TestByNameAndAll(t *testing.T) {
	for _, s := range All() {
		got, err := ByName(s.Name())
		if err != nil {
			t.Errorf("ByName(%s): %v", s.Name(), err)
			continue
		}
		if got.Name() != s.Name() {
			t.Errorf("ByName round-trip broken for %s", s.Name())
		}
	}
	if _, err := ByName("magic"); err == nil {
		t.Error("unknown strategy accepted")
	} else if !errors.Is(err, ErrUnknownStrategy) {
		t.Errorf("err = %v, want ErrUnknownStrategy via errors.Is", err)
	}
	if len(All()) < 5 {
		t.Errorf("only %d strategies", len(All()))
	}
	if len(Names()) != len(All()) {
		t.Errorf("Names() = %d entries, want %d", len(Names()), len(All()))
	}
}

func TestQueuePolicyString(t *testing.T) {
	if FCFS.String() != "fcfs" || SJF.String() != "sjf" {
		t.Error("policy names")
	}
	if QueuePolicy(9).String() == "" {
		t.Error("unknown policy should render")
	}
}
