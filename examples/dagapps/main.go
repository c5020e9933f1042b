// DAG applications: a stream of randomly structured application task
// graphs (Fig. 7 at scale) submitted to the grid simulator. Dependencies
// gate dispatch, the lifecycle tracer records every placement, and the
// run ends with an ASCII Gantt chart of element occupancy plus the first
// application rendered as Graphviz DOT.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/rms"
	"repro/internal/sim"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	spec := grid.AppSpec{
		Apps:     10,
		MinTasks: 4,
		MaxTasks: 9,
		EdgeProb: 0.35,
		Base:     grid.DefaultWorkload(1, 0.1),
	}
	apps, err := grid.GenerateApps(sim.NewRNG(2026), spec)
	if err != nil {
		return err
	}
	total := 0
	for _, a := range apps {
		total += a.Graph.Len()
	}
	fmt.Printf("generated %d applications, %d tasks total\n\n", len(apps), total)

	// Render the first application's structure (pipe into `dot -Tsvg`).
	fmt.Println("first application as DOT:")
	if err := apps[0].Graph.WriteDOT(os.Stdout, "app0"); err != nil {
		return err
	}

	rec := &obs.Recorder{}
	cfg := grid.DefaultConfig()
	cfg.Tracer = rec
	reg, err := grid.BuildGrid(grid.DefaultGridSpec())
	if err != nil {
		return err
	}
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
	if err := eng.SubmitApps(apps, "dag-user"); err != nil {
		return err
	}
	m, err := eng.Run(context.Background())
	if err != nil {
		return err
	}
	fmt.Printf("\n%s\n\n", m)
	fmt.Println("element occupancy (Gantt):")
	return rec.Gantt(os.Stdout, 72)
}
