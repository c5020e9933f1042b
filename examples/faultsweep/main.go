// Faultsweep: measure how the scheduling strategies degrade as the grid
// gets less reliable, through the public API. Each sweep point pairs a
// strategy with a fault intensity (node crashes, SEU configuration
// upsets, and link faults/partitions); the engine's lease renewal
// detects dead placements, releases their fabric regions, and re-enters
// tasks through capped-exponential-backoff retry and re-matchmaking.
//
// Fault schedules are deterministic: a replica's timeline depends only
// on its seed and FaultSpec, never on worker count or wall-clock, so the
// whole sweep replays bit-for-bit.
package main

import (
	"context"
	"fmt"
	"log"

	reconvirt "repro"
	"repro/internal/grid"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	toolchain, err := reconvirt.NewToolchain("Xilinx ISE", "Virtex-4", "Virtex-5", "Virtex-6")
	if err != nil {
		return err
	}

	// Three reliability regimes: none, occasional faults, hostile.
	regimes := []struct {
		name      string
		crashRate float64 // crashes per node-second
		seuRate   float64
		linkRate  float64
	}{
		{"reliable", 0, 0, 0},
		{"flaky", 0.01, 0.02, 0.01},
		{"hostile", 0.05, 0.08, 0.04},
	}

	var points []reconvirt.SweepPoint
	for _, strategy := range reconvirt.Strategies() {
		if strategy.Name() == "gpp-only" {
			continue // the baseline starves hardware tasks by design
		}
		for _, reg := range regimes {
			var fs *reconvirt.FaultSpec
			if reg.crashRate > 0 || reg.seuRate > 0 || reg.linkRate > 0 {
				f := reconvirt.DefaultFaults()
				f.CrashRate = reg.crashRate
				f.MeanOutageSeconds = 20
				f.SEURate = reg.seuRate
				f.LinkFaultRate = reg.linkRate
				f.Retry = reconvirt.RetryPolicy{MaxRetries: 6, BackoffSeconds: 0.5, BackoffCapSeconds: 15}
				fs = &f
			}
			cfg := reconvirt.DefaultEngineConfig()
			cfg.Strategy = strategy
			points = append(points, reconvirt.SweepPoint{
				Name:     fmt.Sprintf("%s/%s", strategy.Name(), reg.name),
				Config:   cfg,
				Grid:     grid.DefaultGridSpec(),
				Workload: grid.DefaultWorkload(150, 1),
				Faults:   fs,
			})
		}
	}

	res, err := reconvirt.RunSweep(context.Background(), reconvirt.SweepSpec{
		Points:       points,
		BaseSeed:     2012,
		Replications: 3,
		Toolchain:    toolchain,
	})
	if err != nil {
		return err
	}

	fmt.Printf("%d replicas on %d workers in %v\n\n", len(res.Replicas), res.Workers, res.Elapsed.Round(1000000))
	fmt.Printf("%-26s %6s %6s %8s %6s %9s %9s\n",
		"strategy/regime", "done", "lost", "retries", "crash", "mttr", "avail")
	for _, p := range res.Points {
		// Per-point totals across the replications.
		var done, lost, retries, crashes int
		var mttr, avail float64
		n := 0
		for _, r := range res.Replicas {
			if r.Replica.Name != p.Name {
				continue
			}
			if r.Err != nil {
				return fmt.Errorf("%s: %w", r.Replica.Name, r.Err)
			}
			m := r.Metrics
			done += m.Completed
			lost += m.TasksLost
			retries += m.Retries
			crashes += m.NodeCrashes
			mttr += m.MeanMTTR()
			avail += m.Availability()
			n++
		}
		fmt.Printf("%-26s %6d %6d %8d %6d %8.2fs %8.2f%%\n",
			p.Name, done, lost, retries, crashes, mttr/float64(n), 100*avail/float64(n))
	}
	return nil
}
