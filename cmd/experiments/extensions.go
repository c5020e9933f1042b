package main

import (
	"context"
	"fmt"

	"repro/internal/capability"
	"repro/internal/grid"
	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/report"
	"repro/internal/rms"
	"repro/internal/sched"
	"repro/internal/sim"
)

func kindFPGA() capability.Kind { return capability.KindFPGA }
func kindGPP() capability.Kind  { return capability.KindGPP }

// x1Workload is a reconfiguration-sensitive stream: short hardware tasks
// on a slow configuration port, so placement decisions (reuse a resident
// configuration vs reconfigure the nearest device) dominate outcomes.
func x1Workload(rate float64) grid.WorkloadSpec {
	ws := grid.DefaultWorkload(200, rate)
	ws.WorkMI = sim.LogNormal{Mu: 10, Sigma: 0.7} // ≈22k MI median: sub-second on hardware
	ws.ShareUserHW = 0.7
	ws.ShareSoftcore = 0
	return ws
}

// x1Strategies is the X1 strategy set; the -strategies flag (resolved via
// sched.ByName) narrows it.
var x1Strategies = []sched.Strategy{sched.FirstFit{}, sched.BestFitArea{}, sched.ReconfigAware{}, sched.ReuseFirst{}}

// runX1 sweeps the arrival rate for each strategy — the core DReAMSim
// comparison of scheduling strategies under load. The strategy × rate grid
// runs as one parallel sweep: every cell is an independent replica, so the
// figure-generation path scales with the machine's cores while producing
// the exact metrics the serial loop did.
func runX1() error {
	tb := report.NewTable("X1: mean wait / turnaround (s) by strategy and arrival rate λ",
		"Strategy", "λ", "mean wait", "p95 wait", "turnaround", "reconfigs", "reuses")
	gs := grid.DefaultGridSpec()
	gs.ReconfigMBpsOverride = 4 // slow configuration port amplifies the trade-off
	tc, err := grid.DefaultToolchain()
	if err != nil {
		return err
	}
	rates := []float64{0.5, 2, 5}
	var points []grid.SweepPoint
	for _, s := range x1Strategies {
		for _, rate := range rates {
			cfg := grid.DefaultConfig()
			cfg.Strategy = s
			points = append(points, grid.SweepPoint{
				Name:     fmt.Sprintf("%s@%.1f", s.Name(), rate),
				Config:   cfg,
				Grid:     gs,
				Workload: x1Workload(rate),
			})
		}
	}
	res, err := grid.Sweep(context.Background(), grid.SweepSpec{
		Points:    points,
		Seeds:     []uint64{42},
		Toolchain: tc,
	})
	if err != nil {
		return err
	}
	var ffHigh, raHigh float64
	for _, r := range res.Replicas {
		if r.Err != nil {
			return fmt.Errorf("X1 point %s: %w", r.Replica.Name, r.Err)
		}
		s, rate := x1Strategies[r.Replica.Point/len(rates)], rates[r.Replica.Point%len(rates)]
		m := r.Metrics
		tb.AddRow(s.Name(), rate, m.MeanWait(), m.P95Wait(), m.MeanTurnaround(), m.Reconfigs, m.Reuses)
		if rate == 5 {
			switch s.Name() {
			case "first-fit":
				ffHigh = m.MeanTurnaround()
			case "reconfig-aware":
				raHigh = m.MeanTurnaround()
			}
		}
	}
	fmt.Print(tb)
	if ffHigh > 0 && raHigh > 0 {
		fmt.Println(report.PaperVsMeasured("X1", "reconfig-aware ≤ first-fit @λ=5",
			"expected", raHigh <= ffHigh, fmt.Sprintf("(%.1fs vs %.1fs)", raHigh, ffHigh)))
	}
	return nil
}

// runX2 compares a hybrid grid against a GPP-only grid on the same
// accelerator-friendly workload.
func runX2() error {
	ws := grid.DefaultWorkload(100, 0.4)
	ws.ShareUserHW = 0.6
	ws.ShareSoftcore = 0
	gen, err := grid.Generate(sim.NewRNG(11), ws)
	if err != nil {
		return err
	}
	tc, err := grid.DefaultToolchain()
	if err != nil {
		return err
	}

	mh, err := grid.RunScenario(context.Background(), grid.ScenarioSpec{
		Config: grid.DefaultConfig(), Grid: grid.DefaultGridSpec(), Toolchain: tc, Trace: gen,
	})
	if err != nil {
		return err
	}

	gs := grid.DefaultGridSpec()
	gs.HybridNodes = 0
	gs.GPPNodes = 4
	mg, err := grid.RunScenario(context.Background(), grid.ScenarioSpec{
		Config: grid.DefaultConfig(), Grid: gs, Trace: grid.ToSoftwareOnly(gen),
	})
	if err != nil {
		return err
	}

	tb := report.NewTable("X2: hybrid vs GPP-only (same work, same node count)",
		"Grid", "turnaround", "mean wait", "FPGA util", "GPP util", "J/task")
	tb.AddRow("hybrid (GPP+RPE)", mh.MeanTurnaround(), mh.MeanWait(), mh.Utilization(kindFPGA()), mh.Utilization(kindGPP()), mh.JoulesPerTask())
	tb.AddRow("GPP-only", mg.MeanTurnaround(), mg.MeanWait(), 0.0, mg.Utilization(kindGPP()), mg.JoulesPerTask())
	fmt.Print(tb)
	speedup := mg.MeanTurnaround() / mh.MeanTurnaround()
	fmt.Println(report.PaperVsMeasured("X2", "hybrid wins for parallel workloads",
		"expected", mh.MeanTurnaround() < mg.MeanTurnaround(), fmt.Sprintf("(%.2fx turnaround gain)", speedup)))
	fmt.Println(report.PaperVsMeasured("X2", "hybrid uses less energy per task",
		"expected", mh.JoulesPerTask() < mg.JoulesPerTask(),
		fmt.Sprintf("(%.0f J vs %.0f J — 'more performance at lower power')", mh.JoulesPerTask(), mg.JoulesPerTask())))
	return nil
}

// runX3 sweeps the configuration-port bandwidth, one parallel sweep point
// per bandwidth.
func runX3() error {
	tb := report.NewTable("X3: reconfiguration-bandwidth sensitivity",
		"cfg port MB/s", "total reconfig s", "mean wait", "turnaround")
	tc, err := grid.DefaultToolchain()
	if err != nil {
		return err
	}
	bandwidths := []float64{1, 10, 50, 400, 3200}
	var points []grid.SweepPoint
	for _, mbps := range bandwidths {
		gs := grid.DefaultGridSpec()
		gs.ReconfigMBpsOverride = mbps
		ws := grid.DefaultWorkload(100, 0.6)
		ws.ShareUserHW = 0.5
		points = append(points, grid.SweepPoint{
			Name: fmt.Sprintf("cfgport=%g", mbps), Config: grid.DefaultConfig(), Grid: gs, Workload: ws,
		})
	}
	res, err := grid.Sweep(context.Background(), grid.SweepSpec{Points: points, Seeds: []uint64{17}, Toolchain: tc})
	if err != nil {
		return err
	}
	prev := -1.0
	monotone := true
	for _, r := range res.Replicas {
		if r.Err != nil {
			return fmt.Errorf("X3 point %s: %w", r.Replica.Name, r.Err)
		}
		m := r.Metrics
		tb.AddRow(bandwidths[r.Replica.Point], m.ReconfigSeconds, m.MeanWait(), m.MeanTurnaround())
		if prev >= 0 && m.ReconfigSeconds > prev {
			monotone = false
		}
		prev = m.ReconfigSeconds
	}
	fmt.Print(tb)
	fmt.Println(report.PaperVsMeasured("X3", "reconfig time falls with bandwidth", "monotone", monotone, "saturates once delay ≪ service time"))
	return nil
}

// runX5 places the same workload on a grid where one of two identical
// hybrid nodes sits behind a slow WAN link: strategies that fold transfer
// time into the objective (reconfig-aware) avoid it; first-fit does not.
func runX5() error {
	caps := capability.GPPCaps{CPUType: "Xeon", MIPS: 42000, OS: "Linux", RAMMB: 8192, Cores: 4}
	build := func() (*rms.Registry, error) {
		reg := rms.NewRegistry()
		for _, id := range []string{"FarNode", "NearNode"} {
			n, err := node.New(id)
			if err != nil {
				return nil, err
			}
			if _, err := n.AddGPP(caps); err != nil {
				return nil, err
			}
			if _, err := n.AddRPE("XC5VLX330T"); err != nil {
				return nil, err
			}
			if err := reg.AddNode(n); err != nil {
				return nil, err
			}
		}
		return reg, nil
	}
	tb := report.NewTable("X5: two identical hybrid nodes, FarNode on a 2 MB/s WAN link",
		"Strategy", "turnaround", "mean wait", "reconfigs")
	results := map[string]float64{}
	for _, s := range []sched.Strategy{sched.FirstFit{}, sched.ReconfigAware{}} {
		reg, err := build()
		if err != nil {
			return err
		}
		topo, err := network.Uniform(125, 0.002)
		if err != nil {
			return err
		}
		if err := topo.SetLink("FarNode", network.Link{BandwidthMBps: 2, LatencySeconds: 0.2}); err != nil {
			return err
		}
		cfg := grid.DefaultConfig()
		cfg.Strategy = s
		cfg.Topology = topo
		tc, err := grid.DefaultToolchain()
		if err != nil {
			return err
		}
		mm, err := rms.NewMatchmaker(reg, tc)
		if err != nil {
			return err
		}
		eng, err := grid.NewEngine(cfg, reg, mm)
		if err != nil {
			return err
		}
		ws := x1Workload(1)
		ws.Tasks = 100
		gen, err := grid.Generate(sim.NewRNG(4), ws)
		if err != nil {
			return err
		}
		if err := eng.SubmitWorkload(gen); err != nil {
			return err
		}
		m, err := eng.Run(context.Background())
		if err != nil {
			return err
		}
		tb.AddRow(s.Name(), m.MeanTurnaround(), m.MeanWait(), m.Reconfigs)
		results[s.Name()] = m.MeanTurnaround()
	}
	fmt.Print(tb)
	fmt.Println(report.PaperVsMeasured("X5", "transfer-aware placement avoids slow links",
		"expected", results["reconfig-aware"] < results["first-fit"],
		fmt.Sprintf("(%.2fs vs %.2fs)", results["reconfig-aware"], results["first-fit"])))
	return nil
}

// runX4 compares partial against full-only reconfiguration, both modes as
// points of one parallel sweep.
func runX4() error {
	tb := report.NewTable("X4: partial vs full reconfiguration",
		"Mode", "turnaround", "mean wait", "reconfigs", "reuses", "unfinished")
	tc, err := grid.DefaultToolchain()
	if err != nil {
		return err
	}
	modes := []bool{false, true}
	var points []grid.SweepPoint
	for _, disable := range modes {
		gs := grid.DefaultGridSpec()
		gs.DisablePartialReconfig = disable
		ws := grid.DefaultWorkload(100, 0.6)
		ws.ShareUserHW = 0.5
		name := "partial"
		if disable {
			name = "full-only"
		}
		points = append(points, grid.SweepPoint{
			Name: name, Config: grid.DefaultConfig(), Grid: gs, Workload: ws,
		})
	}
	res, err := grid.Sweep(context.Background(), grid.SweepSpec{Points: points, Seeds: []uint64{23}, Toolchain: tc})
	if err != nil {
		return err
	}
	results := map[bool]*grid.Metrics{}
	for _, r := range res.Replicas {
		if r.Err != nil {
			return fmt.Errorf("X4 point %s: %w", r.Replica.Name, r.Err)
		}
		m := r.Metrics
		results[modes[r.Replica.Point]] = m
		tb.AddRow(r.Replica.Name, m.MeanTurnaround(), m.MeanWait(), m.Reconfigs, m.Reuses, m.Unfinished)
	}
	fmt.Print(tb)
	partialWins := results[false].MeanTurnaround() < results[true].MeanTurnaround()
	fmt.Println(report.PaperVsMeasured("X4", "partial reconfiguration wins", "expected", partialWins,
		fmt.Sprintf("(%.1fs vs %.1fs)", results[false].MeanTurnaround(), results[true].MeanTurnaround())))
	return nil
}
