package grid

import (
	"context"
	"testing"

	"repro/internal/capability"
	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/rms"
	"repro/internal/sched"
	"repro/internal/sim"
)

// localityRig builds two identical hybrid nodes where the FIRST one (the
// one first-fit always picks) sits behind a slow WAN link.
func localityRig(t *testing.T, strategy sched.Strategy) *Metrics {
	t.Helper()
	caps := capability.GPPCaps{CPUType: "Xeon", MIPS: 42000, OS: "Linux", RAMMB: 8192, Cores: 4}
	reg := rms.NewRegistry()
	for _, id := range []string{"FarNode", "NearNode"} {
		n, err := node.New(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.AddGPP(caps); err != nil {
			t.Fatal(err)
		}
		if _, err := n.AddRPE("XC5VLX330T"); err != nil {
			t.Fatal(err)
		}
		if err := reg.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	topo, err := network.Uniform(125, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	// The far node gets a 2 MB/s, 200 ms WAN link.
	if err := topo.SetLink("FarNode", network.Link{BandwidthMBps: 2, LatencySeconds: 0.2}); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Strategy = strategy
	cfg.Topology = topo
	tc, _ := DefaultToolchain()
	mm, err := rms.NewMatchmaker(reg, tc)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(cfg, reg, mm)
	if err != nil {
		t.Fatal(err)
	}
	ws := DefaultWorkload(60, 1)
	ws.ShareUserHW = 0.7
	ws.ShareSoftcore = 0
	ws.WorkMI = sim.LogNormal{Mu: 10, Sigma: 0.7}
	gen, err := Generate(sim.NewRNG(4), ws)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SubmitWorkload(gen); err != nil {
		t.Fatal(err)
	}
	m, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTopologyAwarePlacementAvoidsSlowLinks(t *testing.T) {
	ff := localityRig(t, sched.FirstFit{})
	ra := localityRig(t, sched.ReconfigAware{})
	if ra.Completed != 60 || ff.Completed != 60 {
		t.Fatalf("completion: ra=%d ff=%d", ra.Completed, ff.Completed)
	}
	// Reconfig-aware folds transfer time into its objective, so it routes
	// work to the well-connected node; first-fit blindly hits the far one.
	if ra.MeanTurnaround() >= ff.MeanTurnaround() {
		t.Errorf("topology-aware turnaround %.2fs not better than first-fit %.2fs",
			ra.MeanTurnaround(), ff.MeanTurnaround())
	}
	// The gap must be substantial: the slow link adds tens of seconds per
	// data-heavy task.
	if ff.MeanTurnaround() < 2*ra.MeanTurnaround() {
		t.Logf("gap smaller than expected: %.2fs vs %.2fs", ra.MeanTurnaround(), ff.MeanTurnaround())
	}
}

func TestUniformTopologyMatchesLegacyConfig(t *testing.T) {
	// A Topology with the same parameters as the legacy scalar fields must
	// produce identical results.
	runWith := func(topo *network.Topology) *Metrics {
		cfg := DefaultConfig()
		cfg.Topology = topo
		tc, _ := DefaultToolchain()
		reg, _ := BuildGrid(DefaultGridSpec())
		mm, _ := rms.NewMatchmaker(reg, tc)
		eng, _ := NewEngine(cfg, reg, mm)
		gen, _ := Generate(sim.NewRNG(5), DefaultWorkload(40, 1))
		eng.SubmitWorkload(gen)
		m, err := eng.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	topo, _ := network.Uniform(125, 0.002)
	withTopo := runWith(topo)
	withoutTopo := runWith(nil)
	if withTopo.Makespan != withoutTopo.Makespan || withTopo.MeanWait() != withoutTopo.MeanWait() {
		t.Errorf("uniform topology diverges from scalar config: %v vs %v",
			withTopo.Makespan, withoutTopo.Makespan)
	}
}
